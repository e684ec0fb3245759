package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"paotr/internal/corpus"
)

// cseBenchService registers a duplicated-shape fleet for the CSE
// benchmark (one worker, so per-tick work is deterministic).
func cseBenchService(tb testing.TB, cfg corpus.CSEConfig) *Service {
	tb.Helper()
	// History 8: the per-identity Results buffer is an orthogonal
	// O(tenants*history) product feature — at 10k tenants the default of
	// 64 retains ~640k executions whose GC scanning would dominate the
	// measurement.
	svc := New(cseRegistry(tb, cfg), WithWorkers(1), WithHistory(8))
	for _, q := range corpus.CSEFleet(cfg) {
		if err := svc.Register(q.ID, q.Text); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// timeTicks returns the average steady-state wall-clock time of one
// tick, discarding each result (Run would retain every tick's execution
// slice and measure the garbage collector instead of the tick).
func timeTicks(tick func(), warmup, ticks int) time.Duration {
	for i := 0; i < warmup; i++ {
		tick()
	}
	t0 := time.Now()
	for i := 0; i < ticks; i++ {
		tick()
	}
	return time.Since(t0) / time.Duration(ticks)
}

// cseBenchFile is the machine-readable shape-factoring artifact tracked
// PR-over-PR. SpeedupGated is the only gated metric: the raw factored
// speedup on a 10k-tenant/100-shape fleet is host-noisy far above the
// acceptance floor, so the gate watches a capped value — it moves only
// when factoring genuinely degrades toward the floor, not when a fast
// host makes the headline bigger.
type cseBenchFile struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Tenants    int `json:"tenants"`
	Shapes     int `json:"shapes"`
	// Per-tick wall-clock of the 10k-tenant fleet through the factoring
	// service and through engine.Workload (every tenant planned and
	// evaluated on its own: the unfactored baseline), and of a 100-query
	// service fleet holding one subscriber per shape.
	FactoredTickMs   float64 `json:"factored_tick_ms"`
	UnfactoredTickMs float64 `json:"unfactored_tick_ms"`
	SingletonTickMs  float64 `json:"singleton_tick_ms"`
	// Speedup is UnfactoredTickMs / FactoredTickMs (raw, ungated);
	// FanoutOverhead is FactoredTickMs / SingletonTickMs — what carrying
	// 9,900 extra subscriber identities costs over the 100 evaluations.
	Speedup        float64 `json:"speedup"`
	FanoutOverhead float64 `json:"fanout_overhead"`
	// SpeedupGated = min(Speedup, 12): the committed regression floor.
	SpeedupGated float64 `json:"cse_speedup_gated"`
	// SharedPerTick is the deterministic number of executions served by
	// leader fan-out each tick (tenants - shapes).
	SharedPerTick float64 `json:"shared_per_tick"`
}

// TestWriteCSEBenchJSON emits BENCH_cse.json when PAOTR_BENCH_CSE_JSON
// names an output path (the CI perf-trajectory artifact; skipped
// otherwise). It carries the tentpole's acceptance assertions: a
// 10k-tenant fleet drawing on 100 distinct shapes must tick at least 5x
// faster through the factoring service than through the per-query
// baseline, and within 3x of a 100-query fleet that holds one subscriber
// per shape.
func TestWriteCSEBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_CSE_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_CSE_JSON=<path> to write the benchmark artifact")
	}
	cfg := corpus.CSEConfig{Tenants: 10000, Shapes: 100, Streams: 32, Seed: 271}

	w := cseWorkload(t, cfg)
	unfactoredTick := timeTicks(func() {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}, 2, 8)
	w = nil
	runtime.GC() // drop the dead arm before the ratio-sensitive ones

	factored := cseBenchService(t, cfg)
	factoredTick := timeTicks(func() { factored.Tick() }, 10, 100)
	if m := factored.Metrics(); m.DistinctShapes != cfg.Shapes {
		t.Fatalf("factored fleet interned %d shapes, want %d", m.DistinctShapes, cfg.Shapes)
	}
	single := cfg
	single.Tenants = cfg.Shapes
	singleton := cseBenchService(t, single)
	singletonTick := timeTicks(func() { singleton.Tick() }, 10, 300)

	speedup := unfactoredTick.Seconds() / factoredTick.Seconds()
	overhead := factoredTick.Seconds() / singletonTick.Seconds()
	if speedup < 5 {
		t.Errorf("factored 10k/100-shape fleet speedup %.1fx over the per-query workload, want >= 5x", speedup)
	}
	if overhead > 3 {
		t.Errorf("factored 10k-tenant fleet ticks %.2fx slower than the 100-query fleet, want <= 3x", overhead)
	}

	file := cseBenchFile{
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Tenants:          cfg.Tenants,
		Shapes:           cfg.Shapes,
		FactoredTickMs:   factoredTick.Seconds() * 1e3,
		UnfactoredTickMs: unfactoredTick.Seconds() * 1e3,
		SingletonTickMs:  singletonTick.Seconds() * 1e3,
		Speedup:          speedup,
		FanoutOverhead:   overhead,
		SpeedupGated:     min(speedup, 12),
		SharedPerTick:    float64(cfg.Tenants - cfg.Shapes),
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: tick %.2fms factored vs %.2fms per-query workload (%.1fx), %.2fms singleton (%.2fx overhead)",
		out, file.FactoredTickMs, file.UnfactoredTickMs, speedup, file.SingletonTickMs, overhead)
}
