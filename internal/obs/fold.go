package obs

import (
	"reflect"
	"sync/atomic"
)

// The counter model every layer shares. A family declares its counters
// once, as a live block of exported atomic.Int64 fields that the hot path
// adds to, and a snapshot struct whose same-named int64 fields carry them
// out (plus any derived or non-counter fields the family fills itself).
// Load copies the one into the other; Fold combines two snapshots —
// shards of a fleet, or a live engine and the engines a drain retired —
// by the rule each snapshot field declares:
//
//   - int64 fields sum, unless tagged `agg:"max"` (high-water marks and
//     smoothed gauges take the maximum);
//   - bool fields OR (one shard overloaded makes the fleet overloaded);
//   - string fields keep the first non-empty value.
//
// Reflection runs only on these snapshot and fold paths; increments stay
// single atomic adds.

var atomicInt64 = reflect.TypeOf(atomic.Int64{})

// Load returns a snapshot whose int64 fields hold the current values of
// live's same-named atomic.Int64 fields; live points to a struct. A live
// counter with no snapshot field panics: a dropped counter is a bug.
func Load[S any](live any) S {
	var snap S
	dst := reflect.ValueOf(&snap).Elem()
	src := reflect.ValueOf(live).Elem()
	for i := 0; i < src.NumField(); i++ {
		f := src.Type().Field(i)
		if f.Type != atomicInt64 || !f.IsExported() {
			continue
		}
		d := dst.FieldByName(f.Name)
		if !d.IsValid() || d.Kind() != reflect.Int64 {
			panic("obs.Load: counter " + f.Name + " has no int64 field in " + dst.Type().String())
		}
		d.SetInt(src.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	return snap
}

// Fold combines snapshots a and b field by field under the rules above.
func Fold[S any](a, b S) S {
	x, y := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < x.NumField(); i++ {
		f, g := x.Field(i), y.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			if x.Type().Field(i).Tag.Get("agg") != "max" {
				f.SetInt(f.Int() + g.Int())
			} else if g.Int() > f.Int() {
				f.SetInt(g.Int())
			}
		case reflect.Bool:
			f.SetBool(f.Bool() || g.Bool())
		case reflect.String:
			if f.String() == "" {
				f.SetString(g.String())
			}
		default:
			panic("obs.Fold: no rule for field " + x.Type().Field(i).Name)
		}
	}
	return a
}
