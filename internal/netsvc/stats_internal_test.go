package netsvc

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// No counter dropped: every live serving counter, set to a distinct
// non-zero value, reaches a non-zero snapshot field.
func TestStatsSnapshotDropsNoCounter(t *testing.T) {
	var live Stats
	v := reflect.ValueOf(&live).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	s := reflect.ValueOf(obs.Load[StatsSnapshot](&live))
	for i := 0; i < s.NumField(); i++ {
		switch name := s.Type().Field(i).Name; name {
		case "SojournEWMAus", "ShardsDrained":
			// Not counters of the live block: the admission controller
			// and the fleet's retired fold set them.
		default:
			if s.Field(i).Kind() == reflect.Int64 && s.Field(i).Int() == 0 {
				t.Errorf("StatsSnapshot.%s is zero: counter dropped", name)
			}
		}
	}
}
