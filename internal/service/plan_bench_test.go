package service

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"paotr/internal/fleet"
	"paotr/internal/query"
	"paotr/internal/stream"
)

// planCorpus synthesizes n annotated query trees over the given stream
// space — the registration-storm scale (1k/10k queries, ~n/streams
// queries per stream) where the joint planner's selection loop is the
// cost that matters.
func planCorpus(n, streams int, rng *rand.Rand) []*query.Tree {
	ss := make([]query.Stream, streams)
	for k := range ss {
		ss[k] = query.Stream{Name: fmt.Sprintf("s%d", k), Cost: 1 + 9*rng.Float64()}
	}
	trees := make([]*query.Tree, n)
	for qi := range trees {
		tr := &query.Tree{Streams: ss}
		ands := 1 + rng.IntN(2)
		for a := 0; a < ands; a++ {
			for l := 0; l < 1+rng.IntN(2); l++ {
				tr.Leaves = append(tr.Leaves, query.Leaf{
					And:    a,
					Stream: query.StreamID(rng.IntN(streams)),
					Items:  1 + rng.IntN(4),
					Prob:   0.05 + 0.9*rng.Float64(),
				})
			}
		}
		trees[qi] = tr
	}
	return trees
}

// timePlan returns the best-of-rounds wall-clock time of one joint plan.
func timePlan(rounds int, plan func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		plan()
		if dt := time.Since(t0); dt < best {
			best = dt
		}
	}
	return best
}

// planBenchRow is one planner-scaling measurement of BENCH_plan.json.
type planBenchRow struct {
	Name    string  `json:"name"`
	Queries int     `json:"queries"`
	PlanMs  float64 `json:"plan_ms"`
}

// planBenchFile is the machine-readable planner-scaling artifact tracked
// PR-over-PR. AllocsPerTick is the only gated metric (deterministic);
// plan times and tick throughput are recorded for the trajectory but not
// gated across heterogeneous hosts.
type planBenchFile struct {
	GoMaxProcs int            `json:"gomaxprocs"`
	Plan       []planBenchRow `json:"plan"`
	// TicksPerSec is steady-state tick throughput of a 48-query fleet at
	// one worker; AllocsPerTick the heap allocations one such tick costs.
	TicksPerSec   float64 `json:"ticks_per_sec"`
	AllocsPerTick float64 `json:"allocs_per_tick"`
}

// allocBenchService builds the steady fleet the allocation and tick-rate
// rows measure: 48 annotated queries over 12 streams, one worker, so the
// per-tick numbers are deterministic modulo amortized buffer growth.
// Extra options (e.g. the observability bench's histogram/tracing
// configurations) are appended after the fixed ones.
func allocBenchService(tb testing.TB, opts ...Option) *Service {
	const streams = 12
	reg := stream.NewRegistry()
	for i := 0; i < streams; i++ {
		if err := reg.Add(stream.Uniform(fmt.Sprintf("s%d", i), uint64(i+1)), stream.CostModel{BaseJoules: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	svc := New(reg, append([]Option{WithWorkers(1)}, opts...)...)
	for q := 0; q < 48; q++ {
		base := q % streams
		text := fmt.Sprintf(
			"(AVG(s%d,8) > 0.3 [p=0.6] AND AVG(s%d,6) > 0.3 [p=0.7]) OR AVG(s%d,4) > 0.3 [p=0.5]",
			base, (base+1)%streams, (base+2)%streams)
		if err := svc.Register(fmt.Sprintf("q%d", q), text); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// TestWritePlanBenchJSON emits BENCH_plan.json when PAOTR_BENCH_PLAN_JSON
// names an output path (the CI perf-trajectory artifact; skipped
// otherwise). The heap planner's speedup over the quadratic reference is
// asserted in internal/fleet (TestHeapPlannerSpeedup1k).
func TestWritePlanBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_PLAN_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_PLAN_JSON=<path> to write the benchmark artifact")
	}
	const streams = 64
	rng := rand.New(rand.NewPCG(97, 13))
	corpus1k := planCorpus(1000, streams, rng)
	corpus10k := planCorpus(10000, streams, rng)

	heapMs := timePlan(3, func() { fleet.PlanJoint(corpus1k, nil) })
	heap10kMs := timePlan(1, func() { fleet.PlanJoint(corpus10k, nil) })

	svc := allocBenchService(t)
	svc.Run(80) // past history-buffer warm-up so steady-state allocs are measured
	allocs := testing.AllocsPerRun(100, func() { svc.Tick() })
	t0 := time.Now()
	const ticks = 400
	svc.Run(ticks)
	ticksPerSec := ticks / time.Since(t0).Seconds()

	file := planBenchFile{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Plan: []planBenchRow{
			{Name: "plan/heap-1k", Queries: 1000, PlanMs: heapMs.Seconds() * 1e3},
			{Name: "plan/heap-10k", Queries: 10000, PlanMs: heap10kMs.Seconds() * 1e3},
		},
		TicksPerSec:   ticksPerSec,
		AllocsPerTick: allocs,
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
	t.Logf("wrote %s: 1k-query plan %.1fms, 10k-query %.1fms, %.0f ticks/sec, %.0f allocs/tick",
		out, file.Plan[0].PlanMs, file.Plan[1].PlanMs, ticksPerSec, allocs)
}
