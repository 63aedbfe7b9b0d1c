package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/router"
)

// TestCountersDeclaredOnce holds core.Counters to its contract by reflection,
// so a new counter needs no test of its own: every field is an integer with
// a unique plain json tag (its wire name wherever it is embedded), and Add
// covers every field — adding a counter to the struct but not to Add fails
// here.
func TestCountersDeclaredOnce(t *testing.T) {
	typ := reflect.TypeOf(core.Counters{})
	tags := map[string]string{}
	var c core.Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("json")
		if tag == "" || strings.Contains(tag, ",") {
			t.Errorf("%s: json tag %q, want a plain non-empty name", f.Name, tag)
		}
		if prev, dup := tags[tag]; dup {
			t.Errorf("%s and %s share json tag %q", prev, f.Name, tag)
		}
		tags[tag] = f.Name
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			cv.Field(i).SetInt(int64(i + 1))
		case reflect.Uint64:
			cv.Field(i).SetUint(uint64(i + 1))
		default:
			t.Fatalf("%s: kind %s, want an integer", f.Name, f.Type.Kind())
		}
	}
	var sum core.Counters
	sum.Add(c)
	sum.Add(c)
	sv := reflect.ValueOf(sum)
	for i := 0; i < typ.NumField(); i++ {
		got := sv.Field(i)
		if got.CanInt() && got.Int() == int64(2*(i+1)) || got.CanUint() && got.Uint() == uint64(2*(i+1)) {
			continue
		}
		t.Errorf("Add misses %s: got %v after adding %d twice", typ.Field(i).Name, got, i+1)
	}
}

// TestEmbeddersDoNotShadowCounters: every struct that embeds core.Counters
// must expose each counter as the promoted field, under its own wire name. Go
// accepts an outer field of the same name, or an outer json tag equal to a
// counter's, without a word — and the encoder then drops the counter.
func TestEmbeddersDoNotShadowCounters(t *testing.T) {
	counters := reflect.TypeOf(core.Counters{})
	wire := map[string]bool{}
	for _, f := range reflect.VisibleFields(counters) {
		wire[f.Tag.Get("json")] = true
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(core.SchedulerStats{}),
		reflect.TypeOf(api.ShardStats{}),
		reflect.TypeOf(api.PoolStats{}),
		reflect.TypeOf(router.ClusterTotals{}),
	} {
		for _, f := range reflect.VisibleFields(counters) {
			got, ok := typ.FieldByName(f.Name)
			if !ok || len(got.Index) != 2 || typ.Field(got.Index[0]).Type != counters {
				t.Errorf("%s: field %s does not resolve to the embedded core.Counters", typ, f.Name)
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); !f.Anonymous && wire[strings.Split(f.Tag.Get("json"), ",")[0]] {
				t.Errorf("%s: field %s takes counter wire name %q", typ, f.Name, f.Tag.Get("json"))
			}
		}
	}
}
