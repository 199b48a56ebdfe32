package kvtxn

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// No counter dropped: every live store counter, set to a distinct
// non-zero value, reaches a non-zero Counters field.
func TestCountersDropNoCounter(t *testing.T) {
	var s Store
	v := reflect.ValueOf(&s.ctr).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	c := reflect.ValueOf(s.Counters())
	for i := 0; i < c.NumField(); i++ {
		if c.Field(i).Int() == 0 {
			t.Errorf("Counters.%s is zero: counter dropped", c.Type().Field(i).Name)
		}
	}
}
