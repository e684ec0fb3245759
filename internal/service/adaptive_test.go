package service

import (
	"fmt"
	"math"
	"testing"

	"paotr/internal/engine"
	"paotr/internal/query"
	"paotr/internal/strategy"
	"paotr/internal/stream"
)

// TestAdaptiveAndLinearSharedMatchesSequential is the adaptive-execution
// counterpart of TestSharedMatchesSequential: 8 adaptive and 8 linear
// queries execute concurrently over one shared cache, and every per-tick
// verdict must equal the one the same query produces alone on a private
// cache. A decision tree changes the evaluation order — never the truth
// value — and sharing changes who pays — never what is observed. Under
// -race this also stresses the adaptive plan cache and the tick batcher.
func TestAdaptiveAndLinearSharedMatchesSequential(t *testing.T) {
	const seed = 1942
	const ticks = 60
	queries := fleetQueries()

	svc := New(testRegistry(seed), WithWorkers(8))
	adaptive := engine.AdaptiveExecutor{GapThreshold: 0}
	for i, qtext := range queries {
		if err := svc.Register(fmt.Sprintf("ad%d", i), qtext, WithQueryExecutor(adaptive)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Register(fmt.Sprintf("lin%d", i), qtext); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]bool{}
	for tick, tr := range svc.Run(ticks) {
		if len(tr.Executions) != 2*len(queries) {
			t.Fatalf("tick %d ran %d executions, want %d", tick, len(tr.Executions), 2*len(queries))
		}
		for _, e := range tr.Executions {
			if e.Err != "" {
				t.Fatalf("tick %d query %s: %s", tick, e.ID, e.Err)
			}
			got[e.ID] = append(got[e.ID], e.Value)
		}
	}

	// Sequential baseline: each query alone on a private cache over an
	// identically seeded registry, linear execution.
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
			for _, id := range []string{fmt.Sprintf("ad%d", i), fmt.Sprintf("lin%d", i)} {
				if got[id][tick] != r.Value {
					t.Errorf("query %s tick %d: shared=%v sequential=%v", id, tick, got[id][tick], r.Value)
				}
			}
		}
	}
}

// TestBatchingCostNeutralAndCountsDuplicates: batched acquisition must
// not change verdicts — every tenant sees what the per-query baseline
// (engine.Workload) computes — and the fleet's PaidCost, batched pulls
// included, must be exactly what the cache spent per stream. The batcher
// must report the duplicate first-leaf pulls it coalesced away.
func TestBatchingCostNeutralAndCountsDuplicates(t *testing.T) {
	const ticks = 40
	svc := New(testRegistry(9), WithWorkers(4))
	for i, qtext := range fleetQueries() {
		if err := svc.Register(fmt.Sprintf("q%d", i), qtext); err != nil {
			t.Fatal(err)
		}
	}
	got := svc.Run(ticks)
	m := svc.Metrics()
	want, err := newWorkload(t, testRegistry(9), fleetQueries()...).Run(ticks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for j, e := range got[i].Executions {
			if e.Err != "" || e.Value != want[i].Results[j].Value {
				t.Fatalf("tick %d execution %s: (%v, %q), per-query baseline %v",
					i+1, e.ID, e.Value, e.Err, want[i].Results[j].Value)
			}
		}
	}
	spent := 0.0
	for _, ps := range m.PerStream {
		spent += ps.Spent
	}
	if math.Abs(m.PaidCost-spent) > 1e-9*math.Max(spent, 1) {
		t.Errorf("PaidCost %.6f != per-stream spent %.6f", m.PaidCost, spent)
	}
	if m.DuplicatePullsAvoided == 0 || m.BatchedItems == 0 || m.BatchedCost == 0 {
		t.Errorf("no batch activity recorded: %+v", m)
	}
	t.Logf("batcher coalesced %d duplicate first-leaf pulls (%d items, %.2f J of %.2f J paid)",
		m.DuplicatePullsAvoided, m.BatchedItems, m.BatchedCost, m.PaidCost)
}

// TestStrategyMetricsExposed: per-query metrics must report the executor
// kind and count decision-tree executions, and the fleet snapshot must
// carry the realized-vs-expected ratio.
func TestStrategyMetricsExposed(t *testing.T) {
	tr := strategy.CounterExample()
	names := []string{"u0", "u1", "u2"}
	reg := stream.NewRegistry()
	for k, st := range tr.Streams {
		if err := reg.Add(stream.Uniform(names[k], uint64(k+1)), stream.CostModel{BaseJoules: st.Cost}); err != nil {
			t.Fatal(err)
		}
	}
	svc := New(reg, WithWorkers(2))
	text := strategy.UniformQueryText(tr, names)
	if err := svc.Register("ad", text, WithQueryExecutor(engine.AdaptiveExecutor{GapThreshold: -1})); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("lin", text); err != nil {
		t.Fatal(err)
	}
	svc.Run(30)
	ad, err := svc.QueryMetrics("ad")
	if err != nil {
		t.Fatal(err)
	}
	lin, err := svc.QueryMetrics("lin")
	if err != nil {
		t.Fatal(err)
	}
	if ad.Executor != engine.StrategyAdaptive || lin.Executor != engine.StrategyLinear {
		t.Fatalf("executor kinds = %q/%q, want adaptive/linear", ad.Executor, lin.Executor)
	}
	if ad.AdaptiveExecutions == 0 {
		t.Errorf("adaptive query recorded no decision-tree executions: %+v", ad)
	}
	if lin.AdaptiveExecutions != 0 {
		t.Errorf("linear query recorded decision-tree executions: %+v", lin)
	}
	m := svc.Metrics()
	if m.AdaptiveExecutions != ad.AdaptiveExecutions {
		t.Errorf("fleet adaptive executions %d != per-query %d", m.AdaptiveExecutions, ad.AdaptiveExecutions)
	}
	if m.RealizedOverExpected <= 0 {
		t.Errorf("fleet realized/expected ratio not computed: %+v", m)
	}
	if res, err := svc.Results("ad", 1); err != nil || len(res) != 1 || res[0].Strategy != engine.StrategyAdaptive {
		t.Errorf("adaptive execution record = %+v, %v", res, err)
	}
}

// gapFleet registers the corpus queries (one per tree, each over its own
// uniform streams) in a fresh service with the given executor.
func gapFleet(t testing.TB, corpus []*query.Tree, seed uint64, x engine.Executor) *Service {
	reg := stream.NewRegistry()
	names := make([][]string, len(corpus))
	for qi, tr := range corpus {
		names[qi] = make([]string, len(tr.Streams))
		for k, st := range tr.Streams {
			name := fmt.Sprintf("q%d-s%d", qi, k)
			names[qi][k] = name
			if err := reg.Add(stream.Uniform(name, seed+uint64(qi*16+k)), stream.CostModel{BaseJoules: st.Cost}); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc := New(reg, WithExecutor(x),
		WithEngineOptions(engine.WithReplanThreshold(0.05)))
	for qi, tr := range corpus {
		if err := svc.Register(fmt.Sprintf("q%d", qi), strategy.UniformQueryText(tr, names[qi])); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// TestAdaptiveRealizedBeatsLinearOnGapCorpus: on a counter-example corpus
// the adaptive executor's realized acquisition cost must not exceed the
// linear executor's on identical streams (small tolerance for sampling
// noise; the modelled gap is >= 10%).
func TestAdaptiveRealizedBeatsLinearOnGapCorpus(t *testing.T) {
	corpus := strategy.GapCorpus(4, 1.10)
	if len(corpus) < 2 {
		t.Fatalf("gap corpus too small: %d trees", len(corpus))
	}
	const seed = 7
	ticks := 1500
	if testing.Short() {
		ticks = 400
	}
	lin := gapFleet(t, corpus, seed, engine.LinearExecutor{})
	lin.Run(ticks)
	ad := gapFleet(t, corpus, seed, engine.AdaptiveExecutor{GapThreshold: engine.DefaultGapThreshold})
	ad.Run(ticks)
	lc, ac := lin.Metrics().PaidCost, ad.Metrics().PaidCost
	if ac > lc*1.02 {
		t.Errorf("adaptive realized %.1f J exceeds linear %.1f J", ac, lc)
	}
	t.Logf("realized over %d ticks: linear %.1f J, adaptive %.1f J (%.1f%% saved)",
		ticks, lc, ac, 100*(1-ac/lc))
}

// BenchmarkAdaptiveVsLinear measures realized acquisition cost and tick
// throughput of the two executors on the counter-example corpus. The
// J/tick metrics are the headline gap: adaptive execution should pay
// measurably less per tick than linear on these instances.
func BenchmarkAdaptiveVsLinear(b *testing.B) {
	corpus := strategy.GapCorpus(4, 1.10)
	bench := func(b *testing.B, x engine.Executor) {
		svc := gapFleet(b, corpus, 7, x)
		svc.Run(3) // steady state
		start := svc.Metrics().PaidCost
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.Tick()
		}
		b.StopTimer()
		b.ReportMetric((svc.Metrics().PaidCost-start)/float64(b.N), "J/tick")
	}
	b.Run("linear", func(b *testing.B) { bench(b, engine.LinearExecutor{}) })
	b.Run("adaptive", func(b *testing.B) { bench(b, engine.AdaptiveExecutor{GapThreshold: engine.DefaultGapThreshold}) })
}
