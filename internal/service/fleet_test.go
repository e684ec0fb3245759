package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"paotr/internal/engine"
	"paotr/internal/stream"
)

// overlapRegistry builds a registry with one shared expensive stream and
// n cheaper private streams, the shape where joint planning pays: each
// tenant's query is near-tied between a shared branch and a private
// branch, and only a fleet-level view makes the shared branch win.
func overlapRegistry(tb testing.TB, tenants int, seed uint64) *stream.Registry {
	tb.Helper()
	reg := stream.NewRegistry()
	if err := reg.Add(stream.Uniform("shared", seed), stream.CostModel{BaseJoules: 8}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		if err := reg.Add(stream.Uniform(fmt.Sprintf("private%d", i), seed+uint64(i)+1), stream.CostModel{BaseJoules: 7}); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// overlapTexts is one query per tenant: an OR of a shared-stream branch
// and a private-stream branch with annotated probabilities, so planning
// is deterministic and the shared/private tie is controlled.
func overlapTexts(tenants int) []string {
	out := make([]string, tenants)
	for i := range out {
		out[i] = fmt.Sprintf("(AVG(shared,4) > 0.2 [p=0.5]) OR (AVG(private%d,4) > 0.2 [p=0.5])", i)
	}
	return out
}

// overlapFleet registers overlapTexts as tenant0..tenant<n-1>.
func overlapFleet(tb testing.TB, svc Runtime, tenants int) {
	tb.Helper()
	for i, text := range overlapTexts(tenants) {
		if err := svc.Register(fmt.Sprintf("tenant%d", i), text); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFleetPlanningSharedMatchesSequential is the fleet-planning
// counterpart of TestSharedMatchesSequential: joint planning reorders
// leaf evaluation across queries, but every per-tick verdict must equal
// the one the same query produces alone on a private cache, and the
// fleet must never pay more than the private-cache baselines combined.
// Under -race this also stresses the striped cache and the fleet plan
// cache across the worker pool.
func TestFleetPlanningSharedMatchesSequential(t *testing.T) {
	const seed = 271
	const ticks = 60
	queries := fleetQueries()

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
		for _, e := range tr.Executions {
			if e.Err != "" {
				t.Fatalf("tick %d query %s: %s", tick, e.ID, e.Err)
			}
			if !e.FleetPlanned {
				t.Fatalf("tick %d query %s not fleet-planned despite linear executor", tick, e.ID)
			}
			var qi int
			fmt.Sscanf(e.ID, "q%d", &qi)
			shared[qi][tick] = e.Value
		}
	}
	m := svc.Metrics()
	if m.FleetPlans != ticks || m.FleetPlannedExecutions != int64(ticks*len(queries)) {
		t.Errorf("fleet planning metrics = %+v, want %d plans / %d executions",
			m, ticks, ticks*len(queries))
	}
	if m.FleetExpectedCost <= 0 || m.FleetExpectedCost > m.IndependentExpectedCost+1e-9 {
		t.Errorf("fleet expected %v vs independent %v: joint model must not exceed independent sum",
			m.FleetExpectedCost, m.IndependentExpectedCost)
	}

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
				t.Errorf("query %d tick %d: fleet-planned=%v sequential=%v", i, tick, shared[i][tick], r.Value)
			}
		}
		privateCost += cache.Spent()
	}
	if m.PaidCost > privateCost+1e-9 {
		t.Errorf("fleet paid %.3f, more than private caches' %.3f", m.PaidCost, privateCost)
	}
	t.Logf("fleet-planned cost %.1f J vs private %.1f J; modelled joint %.1f J vs independent %.1f J (%.1f%% modelled saving)",
		m.PaidCost, privateCost, m.FleetExpectedCost, m.IndependentExpectedCost, 100*m.FleetModelledSaving)
}

// TestFleetPlanningRealizesSaving: on the overlapping-tenant corpus,
// joint planning must realize a lower (or equal) total acquisition cost
// than the per-query baseline (engine.Workload) over the same streams,
// and a strictly lower modelled cost than independent planning.
func TestFleetPlanningRealizesSaving(t *testing.T) {
	const tenants = 6
	ticks := 400
	if testing.Short() {
		ticks = 120
	}
	svc := New(overlapRegistry(t, tenants, 99), WithWorkers(4))
	overlapFleet(t, svc, tenants)
	svc.Run(ticks)
	on := svc.Metrics()
	w := newWorkload(t, overlapRegistry(t, tenants, 99), overlapTexts(tenants)...)
	if _, err := w.Run(ticks); err != nil {
		t.Fatal(err)
	}
	if on.FleetExpectedCost >= on.IndependentExpectedCost {
		t.Errorf("joint planning modelled no saving: fleet %v vs independent %v",
			on.FleetExpectedCost, on.IndependentExpectedCost)
	}
	if on.PaidCost > w.Spent()*1.01 {
		t.Errorf("fleet planning paid %.1f J, per-query workload %.1f J", on.PaidCost, w.Spent())
	}
	t.Logf("realized over %d ticks: fleet %.1f J vs per-query workload %.1f J (%.1f%% saved); modelled saving %.1f%%",
		ticks, on.PaidCost, w.Spent(), 100*(1-on.PaidCost/w.Spent()), 100*on.FleetModelledSaving)
}

// TestPerStreamMetricsExposed: the fleet snapshot must break traffic
// down by stream — hit rate, pulls, spent and the batcher's per-stream
// duplicate-pull shares — summing to the fleet-wide aggregates.
func TestPerStreamMetricsExposed(t *testing.T) {
	svc := New(overlapRegistry(t, 4, 5), WithWorkers(2))
	overlapFleet(t, svc, 4)
	svc.Run(30)
	m := svc.Metrics()
	if len(m.PerStream) != 5 {
		t.Fatalf("per-stream metrics for %d streams, want 5", len(m.PerStream))
	}
	var req, tr, dup int64
	sharedSeen := false
	for _, ps := range m.PerStream {
		req += ps.Requested
		tr += ps.Transferred
		dup += ps.DuplicatePullsAvoided
		if ps.Name == "shared" {
			sharedSeen = true
			if ps.Requested == 0 || ps.Transferred == 0 || ps.HitRate <= 0 {
				t.Errorf("shared stream has no traffic: %+v", ps)
			}
		}
	}
	if !sharedSeen {
		t.Error("shared stream missing from per-stream metrics")
	}
	if req != m.CacheRequested || tr != m.CacheTransferred {
		t.Errorf("per-stream sums (%d, %d) != fleet aggregates (%d, %d)",
			req, tr, m.CacheRequested, m.CacheTransferred)
	}
	if dup != m.DuplicatePullsAvoided {
		t.Errorf("per-stream duplicate pulls %d != fleet total %d", dup, m.DuplicatePullsAvoided)
	}
	if m.DuplicatePullsAvoided == 0 {
		t.Error("overlapping fleet avoided no duplicate pulls")
	}
}

// TestFleetPlanCacheReuses: with annotated probabilities and a stable
// fleet, the joint planner must reuse its cached plan on most ticks.
func TestFleetPlanCacheReuses(t *testing.T) {
	svc := New(overlapRegistry(t, 3, 11), WithWorkers(1),
		WithEngineOptions(engine.WithReplanThreshold(0.02)))
	overlapFleet(t, svc, 3)
	svc.Run(30)
	m := svc.Metrics()
	if m.FleetPlans == 0 {
		t.Fatal("no fleet plans recorded")
	}
	if rate := float64(m.FleetPlanReuses) / float64(m.FleetPlans); rate < 0.8 {
		t.Errorf("fleet plan reuse rate %.2f, want >= 0.8 under stable probabilities", rate)
	}
}

// TestRegisterInvalidatesFleetPlans: a query id re-registered with a
// different query must not inherit the joint plan cached for the old
// query — Register/Unregister drop the planner's entries, so the next
// tick re-plans.
func TestRegisterInvalidatesFleetPlans(t *testing.T) {
	svc := New(overlapRegistry(t, 3, 13), WithWorkers(1),
		WithEngineOptions(engine.WithReplanThreshold(0.05)))
	overlapFleet(t, svc, 3)
	svc.Run(5)
	before := svc.Metrics()
	if before.FleetPlanReuses == 0 {
		t.Fatal("stable fleet produced no plan reuse to begin with")
	}
	if err := svc.Unregister("tenant0"); err != nil {
		t.Fatal(err)
	}
	// Same id, same stream shape, different probabilities: without
	// invalidation the old fingerprint would match within Eps and the
	// stale plan would be reused.
	if err := svc.Register("tenant0",
		"(AVG(shared,4) > 0.2 [p=0.52]) OR (AVG(private0,4) > 0.2 [p=0.48])"); err != nil {
		t.Fatal(err)
	}
	svc.Tick()
	after := svc.Metrics()
	if after.FleetPlanReuses != before.FleetPlanReuses {
		t.Errorf("tick after re-registration reused a cached joint plan (%d -> %d reuses)",
			before.FleetPlanReuses, after.FleetPlanReuses)
	}
	if after.FleetPlans != before.FleetPlans+1 {
		t.Errorf("fleet plans %d -> %d, want exactly one fresh plan", before.FleetPlans, after.FleetPlans)
	}
}

// fleetBenchResult is one row of BENCH_fleet.json: the J/tick and
// ticks/sec of one planning configuration.
type fleetBenchResult struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"` // "tick"
	Ops      int     `json:"ops"`
	JPerTick float64 `json:"j_per_tick,omitempty"`
	PerSec   float64 `json:"per_sec"`
}

// fleetBenchFile is the machine-readable benchmark artifact tracked
// PR-over-PR (see the ci workflow).
type fleetBenchFile struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	Results    []fleetBenchResult `json:"results"`
	// FleetSavingPct is the realized J/tick saving of fleet planning over
	// the per-query workload.
	FleetSavingPct float64 `json:"fleet_saving_pct"`
}

// TestWriteFleetBenchJSON emits BENCH_fleet.json when PAOTR_BENCH_JSON
// names an output path (the CI perf-trajectory artifact). It is skipped
// otherwise, keeping the default test run fast and file-free.
func TestWriteFleetBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_JSON=<path> to write the benchmark artifact")
	}
	const ticks = 600
	// measure runs 3 warm-up ticks, then times ticks more and prices them
	// by what spent() grew.
	measure := func(name string, run func(n int), spent func() float64) fleetBenchResult {
		run(3)
		start := spent()
		t0 := time.Now()
		run(ticks)
		dt := time.Since(t0)
		return fleetBenchResult{
			Name:     name,
			Unit:     "tick",
			Ops:      ticks,
			JPerTick: (spent() - start) / ticks,
			PerSec:   float64(ticks) / dt.Seconds(),
		}
	}
	const tenants = 6
	w := newWorkload(t, overlapRegistry(t, tenants, 99), overlapTexts(tenants)...)
	svc := New(overlapRegistry(t, tenants, 99), WithWorkers(4))
	overlapFleet(t, svc, tenants)

	file := fleetBenchFile{GoMaxProcs: runtime.GOMAXPROCS(0)}
	indep := measure("planning/per-query-workload", func(n int) {
		if _, err := w.Run(n); err != nil {
			t.Fatal(err)
		}
	}, w.Spent)
	fleetRes := measure("planning/fleet", func(n int) { svc.Run(n) }, func() float64 { return svc.Metrics().PaidCost })
	file.Results = []fleetBenchResult{indep, fleetRes}
	if indep.JPerTick > 0 {
		file.FleetSavingPct = 100 * (1 - fleetRes.JPerTick/indep.JPerTick)
	}
	if fleetRes.JPerTick > indep.JPerTick*1.01 {
		t.Errorf("fleet planning J/tick %.2f exceeds the per-query workload's %.2f", fleetRes.JPerTick, indep.JPerTick)
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
	t.Logf("wrote %s: fleet saves %.1f%% J/tick", out, file.FleetSavingPct)
}
