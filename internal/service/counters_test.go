package service

import (
	"fmt"
	"reflect"
	"testing"

	"paotr/internal/adapt"
)

// setCounter stores v in one numeric Counters field.
func setCounter(t *testing.T, f reflect.Value, v float64) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(int64(v))
	case reflect.Float64:
		f.SetFloat(v)
	default:
		t.Fatalf("Counters field of kind %s: every field must be a number that sums", f.Kind())
	}
}

// counterValue reads one numeric Counters field.
func counterValue(f reflect.Value) float64 {
	if f.Kind() == reflect.Float64 {
		return f.Float()
	}
	return float64(f.Int())
}

// TestCountersAddSumsEveryField: every Counters field holds a distinct
// value in both operands, and Add must sum each one, so a counter added
// to the struct but not to Add fails here.
func TestCountersAddSumsEveryField(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		setCounter(t, av.Field(i), float64(i+1))
		setCounter(t, bv.Field(i), float64(100*(i+1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := counterValue(av.Field(i)), float64(101*(i+1)); got != want {
			t.Errorf("after Add, %s = %v, want %v", av.Type().Field(i).Name, got, want)
		}
	}
}

// TestShardedMetricsSumShardCounters: without a relay, the sharded
// runtime's fleet counters are exactly the sum of its workers' counters.
func TestShardedMetricsSumShardCounters(t *testing.T) {
	sh := NewSharded(testRegistry(5), 4, WithWorkers(1))
	for i, q := range fleetQueries() {
		for _, id := range []string{fmt.Sprintf("q%d", i), fmt.Sprintf("twin%d", i)} {
			if err := sh.Register(id, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh.Run(40)
	var sum Counters
	busy := 0
	for i := 0; i < sh.Shards(); i++ {
		c := sh.Shard(i).Metrics().Counters
		if c.Executions > 0 {
			busy++
		}
		sum.Add(c)
	}
	if busy < 2 {
		t.Fatalf("only %d of %d shards executed queries; the sum would be trivial", busy, sh.Shards())
	}
	if got := sh.Metrics().Counters; got != sum {
		t.Errorf("fleet counters\n%+v\nwant the shard sum\n%+v", got, sum)
	}
}

// TestServiceKeepsOnePredicateStore: the service records leaf outcomes
// into its windowed estimator alone, so the engine's cumulative trace
// store stays empty, and tracked_predicates and trace_evictions report
// the estimator planning reads, under its cap.
func TestServiceKeepsOnePredicateStore(t *testing.T) {
	svc := New(testRegistry(2), WithWorkers(1), WithAdaptConfig(adapt.Config{MaxPredicates: 4}))
	for i, q := range fleetQueries() {
		if err := svc.Register(fmt.Sprintf("q%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	svc.Run(30)
	if n := svc.Engine().Traces().Len(); n != 0 {
		t.Errorf("engine trace store tracks %d predicates, want 0", n)
	}
	m := svc.Metrics()
	ad := svc.Adaptive()
	if m.TrackedPredicates != ad.Len() || m.TrackedPredicates == 0 || m.TrackedPredicates > 4 {
		t.Errorf("tracked_predicates = %d, want the estimator's %d (at most its cap of 4)", m.TrackedPredicates, ad.Len())
	}
	if m.TraceEvictions != ad.Evictions() || m.TraceEvictions == 0 {
		t.Errorf("trace_evictions = %d, want the estimator's %d (> 0 under a cap of 4)", m.TraceEvictions, ad.Evictions())
	}
}
