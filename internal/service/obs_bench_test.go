package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"paotr/internal/obs"
)

// obsBenchRow is one observability configuration's cost on the steady
// 48-query alloc-bench fleet.
type obsBenchRow struct {
	Name string `json:"name"`
	// JPerTick is the realized acquisition energy per tick — the paper's
	// efficiency metric, which instrumentation must not move.
	JPerTick float64 `json:"j_per_tick"`
	// AllocsPerTick is the steady-state heap allocations one tick costs.
	AllocsPerTick float64 `json:"allocs_per_tick"`
}

// obsBenchFile is BENCH_obs.json: the observability layer's cost on the
// gated hot path, measured with the always-on histograms alone (tracing
// off — the production default) and with tracing sampling 1% of ticks.
// Both j_per_tick and allocs_per_tick are gated by benchgate against
// ci/baselines.
type obsBenchFile struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	Modes      []obsBenchRow `json:"modes"`
}

// measureObsMode runs one configuration of the alloc-bench fleet to a
// steady state and returns its per-tick energy and allocations.
func measureObsMode(t *testing.T, opts ...Option) obsBenchRow {
	t.Helper()
	svc := allocBenchService(t, opts...)
	svc.Run(80) // past history-buffer warm-up (and the tracer's lazy ring)
	allocs := testing.AllocsPerRun(100, func() { svc.Tick() })
	before := svc.Metrics()
	const ticks = 400
	svc.Run(ticks)
	after := svc.Metrics()
	return obsBenchRow{
		JPerTick:      (after.PaidCost - before.PaidCost) / ticks,
		AllocsPerTick: allocs,
	}
}

// TestWriteObsBenchJSON emits BENCH_obs.json when PAOTR_BENCH_OBS_JSON
// names an output path (the CI perf-trajectory artifact; skipped
// otherwise). Sampled tracing must not move the energy the fleet pays.
func TestWriteObsBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_OBS_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_OBS_JSON=<path> to write the benchmark artifact")
	}
	hist := measureObsMode(t)
	hist.Name = "obs/hist"
	trace := measureObsMode(t, WithTraceSampling(100))
	trace.Name = "obs/trace1pct"
	if trace.JPerTick != hist.JPerTick {
		t.Errorf("tracing moved j_per_tick: %.4f traced vs %.4f untraced", trace.JPerTick, hist.JPerTick)
	}

	file := obsBenchFile{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Modes:      []obsBenchRow{hist, trace},
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
	t.Logf("wrote %s: hist %.3f J / %.0f allocs, trace1%% %.3f J / %.0f allocs",
		out, hist.JPerTick, hist.AllocsPerTick, trace.JPerTick, trace.AllocsPerTick)
}

// TestTracingDisabledAllocPinned pins the zero-overhead contract of the
// tracer's gate: enabling sampling and disabling it again must return
// the tick path to exactly the allocation count it had before tracing
// was ever on — the disabled check is one atomic load, not a branch
// that leaves residue.
func TestTracingDisabledAllocPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state allocation measurement")
	}
	// Per-tick allocations are deterministic but not stationary (result
	// histories grow amortized), so the comparison runs two identical
	// fleets to the same tick and differs only in whether tracing was
	// ever on. The toggled fleet's residue, if any, shows up as extra
	// allocations in the measured window.
	pristine := allocBenchService(t)
	toggled := allocBenchService(t)
	pristine.Run(80)
	toggled.Run(80)

	toggled.SetTraceSampling(1)
	toggled.Run(4) // sampled ticks allocate traces and the lazy ring
	toggled.SetTraceSampling(0)
	pristine.Run(4)

	want := testing.AllocsPerRun(50, func() { pristine.Tick() })
	got := testing.AllocsPerRun(50, func() { toggled.Tick() })
	if got > want {
		t.Errorf("tracing left residue: %.0f allocs/tick after enable+disable, %.0f on the pristine twin", got, want)
	}
	if toggled.TraceSampling() != 0 || obs.TracingEnabled() {
		t.Errorf("tracer not fully disabled: period %d, gate %v", toggled.TraceSampling(), obs.TracingEnabled())
	}
}

// TestTickLatencyMergeMatchesFleet: the coordinator's merged tick
// histograms must be byte-identical (as JSON) to merging every shard's
// snapshot by hand — the exactness the integer bucket counters buy.
func TestTickLatencyMergeMatchesFleet(t *testing.T) {
	const tenants, shards, ticks = 6, 3, 30
	reg := overlapRegistry(t, tenants, 11)
	sh := NewSharded(reg, shards, WithWorkers(2))
	overlapFleet(t, sh, tenants)
	sh.Run(ticks)

	merged := sh.Metrics().TickLatency
	if merged == nil {
		t.Fatal("sharded runtime reports no tick latency")
	}
	var manual obs.LatencySnapshot
	for i := 0; i < shards; i++ {
		manual = obs.MergeLatency(manual, sh.Shard(i).Metrics().TickLatency)
	}
	a, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(manual)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("merged snapshot diverges from per-shard merge:\nfleet:  %s\nmanual: %s", a, b)
	}
	total := merged[obs.PhaseNames[obs.PhaseTotal]]
	if total.Count != int64(shards*ticks) {
		t.Errorf("total-phase count = %d, want %d (shards x ticks)", total.Count, shards*ticks)
	}
}
