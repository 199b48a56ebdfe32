package obs

import (
	"reflect"
	"sync/atomic"
	"testing"
)

func TestFoldRules(t *testing.T) {
	type snap struct {
		Name string
		N    int64
		HWM  int64 `agg:"max"`
		Hot  bool
	}
	for _, tc := range []struct {
		name string
		a, b snap
		want snap
	}{
		{"zero is identity", snap{}, snap{"http", 3, 7, true}, snap{"http", 3, 7, true}},
		{"counters sum", snap{N: 2}, snap{N: 5}, snap{N: 7}},
		{"max keeps the larger", snap{HWM: 9}, snap{HWM: 4}, snap{HWM: 9}},
		{"max takes a larger right side", snap{HWM: 4}, snap{HWM: 9}, snap{HWM: 9}},
		{"bools or", snap{Hot: false}, snap{Hot: true}, snap{Hot: true}},
		{"false or false", snap{}, snap{}, snap{}},
		{"first non-empty string wins", snap{Name: "resp"}, snap{Name: "http"}, snap{Name: "resp"}},
		{"empty string takes the other", snap{Name: ""}, snap{Name: "http"}, snap{Name: "http"}},
	} {
		if got := Fold(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Fold(%+v, %+v) = %+v, want %+v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLoadPanicsOnDroppedCounter(t *testing.T) {
	var live struct{ Kept, Orphan atomic.Int64 }
	defer func() {
		if recover() == nil {
			t.Fatal("Load accepted a live counter with no snapshot field")
		}
	}()
	Load[struct{ Kept int64 }](&live)
}

// No counter dropped: every live metric, set to a distinct non-zero
// value, reaches a non-zero snapshot field (derived gauges included).
func TestMetricsSnapshotDropsNoCounter(t *testing.T) {
	o := New()
	v := reflect.ValueOf(&o.m).Elem()
	for i := 0; i < v.NumField(); i++ {
		// Descending, so spawns > dones > kills and the derived
		// live-thread and exit gauges are non-zero too.
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(1000 - i))
	}
	s := reflect.ValueOf(o.Snapshot())
	for i := 0; i < s.NumField(); i++ {
		if s.Field(i).Int() == 0 {
			t.Errorf("Snapshot.%s is zero: counter dropped", s.Type().Field(i).Name)
		}
	}
}
