package service

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"paotr/internal/engine"
	"paotr/internal/stream"
)

// testRegistry builds the standard five-sensor registry used across the
// service tests. Every call re-creates the sources, so deterministic
// streams produce identical values across registries built with the same
// seed.
func testRegistry(seed uint64) *stream.Registry {
	return stream.Wearables(seed)
}

// newWorkload compiles texts into engine.Workload over reg: the paper's
// per-query baseline the service is measured against — each query
// planned and executed on its own, in order, over one shared cache, with
// the engine's cumulative trace estimates.
func newWorkload(tb testing.TB, reg *stream.Registry, texts ...string) *engine.Workload {
	tb.Helper()
	w, err := engine.NewWorkload(engine.New(reg), texts...)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// fleetQueries is a workload of 8 queries sharing the five streams with
// heavily overlapping windows — the multi-query sharing scenario of the
// paper's motivation.
func fleetQueries() []string {
	return []string{
		"AVG(heart-rate,5) > 100 AND accelerometer < 12",
		"heart-rate > 120 OR spo2 < 90",
		"spo2 < 92 OR (heart-rate > 110 AND gps-speed < 0.5)",
		"AVG(heart-rate,5) > 90 AND AVG(spo2,3) < 95",
		"accelerometer > 15 AND heart-rate > 100",
		"temperature > 24 OR (accelerometer > 20 AND gps-speed > 1.0)",
		"AVG(gps-speed,4) > 1.5 AND heart-rate > 80",
		"AVG(temperature,6) < 25 AND spo2 > 90",
	}
}

func TestRegisterUnregisterHorizons(t *testing.T) {
	reg := testRegistry(1)
	s := New(reg)
	if err := s.Register("a", "AVG(heart-rate,5) > 100"); err != nil {
		t.Fatal(err)
	}
	hr, _ := reg.IndexOf("heart-rate")
	if got := s.Cache().Horizon(hr); got != 5 {
		t.Fatalf("horizon after register = %d, want 5", got)
	}
	if err := s.Register("b", "AVG(heart-rate,9) > 100 AND spo2 < 95"); err != nil {
		t.Fatal(err)
	}
	if got := s.Cache().Horizon(hr); got != 9 {
		t.Fatalf("horizon with two queries = %d, want max window 9", got)
	}
	if err := s.Register("a", "heart-rate > 0"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := s.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if got := s.Cache().Horizon(hr); got != 5 {
		t.Fatalf("horizon after unregister = %d, want 5 again", got)
	}
	if err := s.Unregister("b"); err == nil {
		t.Fatal("double unregister accepted")
	}
	if got := len(s.QueryIDs()); got != 1 {
		t.Fatalf("%d queries registered, want 1", got)
	}
}

func TestRegisterErrors(t *testing.T) {
	s := New(testRegistry(1))
	if err := s.Register("bad", "no-such-stream > 1"); err == nil {
		t.Fatal("unknown stream accepted")
	}
	if err := s.Register("bad", "AVG(heart-rate"); err == nil {
		t.Fatal("syntax error accepted")
	}
	if got := len(s.QueryIDs()); got != 0 {
		t.Fatalf("failed registrations left %d queries", got)
	}
}

// TestSharedMatchesSequential is the central correctness property of the
// multi-query refactor: >=8 queries executing concurrently over one
// shared cache must produce exactly the per-tick truth values that the
// same queries produce when each runs alone on a private cache — sharing
// may only change who pays, never what is observed. Run under -race this
// also stresses the concurrency surface of cache, engine and traces.
func TestSharedMatchesSequential(t *testing.T) {
	const seed = 42
	const ticks = 60
	queries := fleetQueries()

	// Concurrent run: one service, shared cache, worker pool.
	svc := New(testRegistry(seed), WithWorkers(8))
	for i, q := range queries {
		if err := svc.Register(fmt.Sprintf("q%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	shared := make([][]bool, len(queries))
	for i := range shared {
		shared[i] = make([]bool, ticks)
	}
	for tick, tr := range svc.Run(ticks) {
		if len(tr.Executions) != len(queries) {
			t.Fatalf("tick %d ran %d executions, want %d", tick, len(tr.Executions), len(queries))
		}
		for _, e := range tr.Executions {
			if e.Err != "" {
				t.Fatalf("tick %d query %s: %s", tick, e.ID, e.Err)
			}
			var qi int
			fmt.Sscanf(e.ID, "q%d", &qi)
			shared[qi][tick] = e.Value
		}
	}

	// Sequential baseline: each query alone, on a private cache over an
	// identically seeded registry.
	var sharedCost = svc.Metrics().PaidCost
	var privateCost float64
	for i, qtext := range queries {
		reg := testRegistry(seed)
		eng := engine.New(reg)
		q, err := eng.Compile(qtext)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := q.NewCache()
		if err != nil {
			t.Fatal(err)
		}
		results, err := q.Run(cache, ticks)
		if err != nil {
			t.Fatal(err)
		}
		for tick, r := range results {
			if r.Value != shared[i][tick] {
				t.Errorf("query %d tick %d: shared=%v sequential=%v", i, tick, shared[i][tick], r.Value)
			}
		}
		privateCost += cache.Spent()
	}

	// The shared cache can only save cost versus private caches: every
	// item a query needs is either paid once by somebody or already there.
	if sharedCost > privateCost+1e-9 {
		t.Errorf("shared fleet paid %.3f, more than private caches' %.3f", sharedCost, privateCost)
	}
	t.Logf("fleet cost: shared %.3f vs private %.3f (%.1f%% saved)",
		sharedCost, privateCost, 100*(1-sharedCost/privateCost))
}

func TestEveryAndResults(t *testing.T) {
	svc := New(testRegistry(3), WithHistory(8))
	if err := svc.Register("fast", "heart-rate > 0"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("slow", "spo2 > 0", Every(5)); err != nil {
		t.Fatal(err)
	}
	svc.Run(20)
	fast, err := svc.QueryMetrics("fast")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := svc.QueryMetrics("slow")
	if err != nil {
		t.Fatal(err)
	}
	if fast.Executions != 20 || slow.Executions != 4 {
		t.Fatalf("executions fast=%d slow=%d, want 20 and 4", fast.Executions, slow.Executions)
	}
	res, err := svc.Results("fast", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("history kept %d results, want 8 (WithHistory)", len(res))
	}
	if res[len(res)-1].Tick != 20 {
		t.Fatalf("last result at tick %d, want 20", res[len(res)-1].Tick)
	}
	if _, err := svc.Results("nope", 1); err == nil {
		t.Fatal("unknown id accepted")
	}
	m := svc.Metrics()
	if m.Ticks != 20 || m.Executions != 24 || m.Queries != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.PaidCost <= 0 || m.PredicatesEvaluated <= 0 {
		t.Fatalf("metrics missing aggregates: %+v", m)
	}
	if m.CacheRequested < m.CacheTransferred {
		t.Fatalf("cache counters inconsistent: %+v", m)
	}
}

// TestPlanCacheHitsWithStableProbabilities: with annotated (fixed)
// probabilities and a steady-state cache, ticks after the first few must
// reuse plans rather than re-plan.
func TestPlanCacheHitsWithStableProbabilities(t *testing.T) {
	reg := stream.NewRegistry()
	if err := reg.Add(stream.Constant("c1", 1), stream.BLE); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(stream.Constant("c2", 2), stream.BLE); err != nil {
		t.Fatal(err)
	}
	// One worker: execution order (and so the warm fingerprints) is
	// deterministic; concurrency is exercised by the stress test above.
	svc := New(reg, WithWorkers(1))
	// Annotated probabilities: estimates never drift.
	if err := svc.Register("q0", "AVG(c1,3) > 0 [p=0.7] AND c2 > 1 [p=0.4]"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("q1", "c1 > 0 [p=0.9] OR AVG(c2,2) > 5 [p=0.1]"); err != nil {
		t.Fatal(err)
	}
	svc.Run(30)
	m := svc.Metrics()
	if m.PlanCacheHitRate < 0.8 {
		t.Fatalf("plan cache hit rate %.2f, want >= 0.8 under stable probabilities", m.PlanCacheHitRate)
	}
}

// BenchmarkServiceTicks measures repeated ticks of a stable fleet with
// the plan cache on (default) and off (negative replan threshold). The
// acceptance bar for the refactor is a >=3x speedup from plan reuse.
func BenchmarkServiceTicks(b *testing.B) {
	bench := func(b *testing.B, opts ...Option) {
		reg := stream.NewRegistry()
		for i := 0; i < 6; i++ {
			if err := reg.Add(stream.Constant(fmt.Sprintf("s%d", i), float64(i)), stream.BLE); err != nil {
				b.Fatal(err)
			}
		}
		svc := New(reg, append(opts, WithWorkers(1))...)
		// A wide DNF query per tenant: planning is the expensive part.
		for qi := 0; qi < 4; qi++ {
			text := ""
			for a := 0; a < 5; a++ {
				if a > 0 {
					text += " OR "
				}
				text += fmt.Sprintf("(AVG(s%d,4) > 10 [p=0.3%d] AND AVG(s%d,3) > 10 [p=0.4%d] AND AVG(s%d,5) > 10 [p=0.2%d])",
					(a+qi)%6, a, (a+qi+1)%6, a, (a+qi+2)%6, a)
			}
			if err := svc.Register(fmt.Sprintf("t%d", qi), text); err != nil {
				b.Fatal(err)
			}
		}
		svc.Run(3) // reach steady-state cache occupancy
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.Tick()
		}
	}
	b.Run("plan-cache", func(b *testing.B) { bench(b) })
	b.Run("replan-every-tick", func(b *testing.B) {
		bench(b, WithEngineOptions(engine.WithReplanThreshold(-1)))
	})
}

// TestDeprecatedShimsRejectRemovedPaths: each deprecated option panics in
// New and in NewSharded when asked for the path it used to select, and
// the panic names that path; given its production value it changes
// nothing.
func TestDeprecatedShimsRejectRemovedPaths(t *testing.T) {
	builders := []struct {
		name  string
		build func(...Option)
	}{
		{"New", func(o ...Option) { New(testRegistry(1), o...) }},
		{"NewSharded", func(o ...Option) { NewSharded(testRegistry(1), 2, o...) }},
	}
	for _, c := range []struct {
		opt  Option
		path string
	}{
		{WithBatchedAcquisition(false), "unbatched acquisition"},
		{WithFleetPlanning(false), "independent per-query planning"},
		{WithShapeFactoring(false), "unfactored one-class-per-query"},
		{WithCacheStripes(1), "fixed-stripe (global-lock) cache"},
	} {
		for _, b := range builders {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, c.path) {
						t.Errorf("%s: panic %q, want one naming the removed %s path", b.name, msg, c.path)
					}
				}()
				b.build(c.opt)
			}()
		}
	}

	run := func(opts ...Option) Metrics {
		svc := New(testRegistry(3), append([]Option{WithWorkers(1)}, opts...)...)
		for i, q := range fleetQueries() {
			if err := svc.Register(fmt.Sprintf("q%d", i), q); err != nil {
				t.Fatal(err)
			}
		}
		svc.Run(20)
		m := svc.Metrics()
		m.PlanNanos, m.TickLatency = 0, nil // wall-clock
		return m
	}
	want := run()
	got := run(WithBatchedAcquisition(true), WithFleetPlanning(true), WithShapeFactoring(true), WithCacheStripes(0))
	// The estimator averages CI widths in map order: equal to rounding.
	if math.Abs(got.AvgCIWidth-want.AvgCIWidth) > 1e-12 {
		t.Errorf("AvgCIWidth %v, want %v", got.AvgCIWidth, want.AvgCIWidth)
	}
	got.AvgCIWidth = want.AvgCIWidth
	if !reflect.DeepEqual(got, want) {
		t.Errorf("production shim values changed the metrics:\n got %+v\nwant %+v", got, want)
	}
}
