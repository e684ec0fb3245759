package engine

import (
	"fmt"
	"math"
	"testing"

	"paotr/internal/acquisition"
	"paotr/internal/strategy"
	"paotr/internal/stream"
)

// uniformRegistry builds one uniform stream per name with unit BLE-free
// costs (PerItem = cost).
func uniformRegistry(seed uint64, names []string, costs []float64) *stream.Registry {
	reg := stream.NewRegistry()
	for i, n := range names {
		if err := reg.Add(stream.Uniform(n, seed+uint64(i)), stream.CostModel{BaseJoules: costs[i]}); err != nil {
			panic(err)
		}
	}
	return reg
}

// TestAdaptiveMatchesLinearVerdicts: on identical streams, the adaptive
// executor must report exactly the truth values the linear executor
// reports — a decision tree changes the evaluation order, never the
// query's value.
func TestAdaptiveMatchesLinearVerdicts(t *testing.T) {
	text := strategy.UniformQueryText(strategy.CounterExample(), []string{"u0", "u1", "u2"})
	run := func(execute func(*Query, *acquisition.Cache) (Result, error)) []bool {
		reg := uniformRegistry(11, []string{"u0", "u1", "u2"}, []float64{1, 1, 1})
		eng := New(reg)
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := q.NewCache()
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 200; i++ {
			cache.Advance(1)
			res, err := execute(q, cache)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Value)
		}
		return out
	}
	linear := run((*Query).Execute)
	adaptive := run(func(q *Query, cache *acquisition.Cache) (Result, error) {
		ap, err := q.PlanAdaptive(cache, -1)
		if err != nil {
			return Result{}, err
		}
		return q.ExecuteAdaptivePlan(ap, cache)
	})
	for i := range linear {
		if linear[i] != adaptive[i] {
			t.Fatalf("tick %d: linear=%v adaptive=%v", i, linear[i], adaptive[i])
		}
	}
}

// TestAdaptiveFallsBackAboveDPBound: a query with more than
// strategy.MaxLeaves leaves must execute linearly under the adaptive
// executor.
func TestAdaptiveFallsBackAboveDPBound(t *testing.T) {
	names := make([]string, 13)
	costs := make([]float64, 13)
	text := ""
	for i := range names {
		names[i] = fmt.Sprintf("u%d", i)
		costs[i] = 1
		if i > 0 {
			text += " AND "
		}
		text += fmt.Sprintf("u%d < 0.5 [p=0.5]", i)
	}
	reg := uniformRegistry(3, names, costs)
	eng := New(reg)
	q, err := eng.Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)
	ap, err := q.PlanAdaptive(cache, -1)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Root != nil || ap.Strategy() != StrategyLinear {
		t.Fatalf("13-leaf query got strategy %q, want linear fallback", ap.Strategy())
	}
	if !math.IsNaN(ap.NonLinearCost) {
		t.Fatalf("NonLinearCost = %v, want NaN when the DP is skipped", ap.NonLinearCost)
	}
	res, err := q.ExecuteAdaptivePlan(ap, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyLinear {
		t.Fatalf("executed strategy %q, want linear", res.Strategy)
	}
}

// TestAdaptiveGapThresholdFallback: on a read-once tree (no shared
// streams) the optimal non-linear cost equals the optimal linear cost, so
// any non-negative gap threshold must keep the linear schedule.
func TestAdaptiveGapThresholdFallback(t *testing.T) {
	reg := uniformRegistry(5, []string{"a", "b"}, []float64{1, 2})
	eng := New(reg)
	q, err := eng.Compile("a < 0.3 [p=0.3] OR b < 0.6 [p=0.6]")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)
	ap, err := q.PlanAdaptive(cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Strategy() != StrategyLinear {
		t.Fatalf("read-once tree got strategy %q, want linear (no gap)", ap.Strategy())
	}
	if g := ap.Gap(); g > 1e-9 {
		t.Fatalf("read-once gap = %v, want ~0", g)
	}
}

// TestAdaptivePlanReuse: with annotated probabilities and a stable warm
// state, the decision tree must come from the plan cache, and
// InvalidatePlan must force a fresh DP run.
func TestAdaptivePlanReuse(t *testing.T) {
	text := strategy.UniformQueryText(strategy.CounterExample(), []string{"u0", "u1", "u2"})
	reg := uniformRegistry(17, []string{"u0", "u1", "u2"}, []float64{1, 1, 1})
	eng := New(reg)
	q, err := eng.Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)
	first, err := q.PlanAdaptive(cache, -1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Reused {
		t.Fatal("first adaptive plan reported as reused")
	}
	second, err := q.PlanAdaptive(cache, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Reused || second.Root != first.Root {
		t.Fatalf("second plan at same state not reused (reused=%v, same root=%v)",
			second.Reused, second.Root == first.Root)
	}
	q.InvalidatePlan()
	third, err := q.PlanAdaptive(cache, -1)
	if err != nil {
		t.Fatal(err)
	}
	if third.Reused {
		t.Fatal("plan reused after InvalidatePlan")
	}
}

// TestAdaptiveRealizedCostMatchesDP is the executor half of the
// non-linear property: over many cold-cache trials, the adaptive
// executor's mean realized acquisition cost must converge to the DP's
// expected cost. Leaves use distinct streams so realized truth values are
// independent, exactly as the DP assumes; uniform streams make each
// leaf's marginal probability match its annotation exactly.
func TestAdaptiveRealizedCostMatchesDP(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	costs := []float64{1, 2, 3, 1}
	// Windows are 1, so every tick starts cold: each trial is i.i.d.
	text := "(a < 0.3 [p=0.3] AND b < 0.7 [p=0.7]) OR (c < 0.5 [p=0.5] AND d < 0.4 [p=0.4])"
	reg := uniformRegistry(29, names, costs)
	eng := New(reg)
	q, err := eng.Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	total := 0.0
	var expected float64
	for i := 0; i < trials; i++ {
		cache.Advance(1)
		ap, err := q.PlanAdaptive(cache, -1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.ExecuteAdaptivePlan(ap, cache)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyAdaptive {
			t.Fatalf("trial %d used strategy %q, want adaptive", i, res.Strategy)
		}
		total += res.Cost
		expected = res.ExpectedCost
	}
	mean := total / trials
	if rel := math.Abs(mean-expected) / expected; rel > 0.05 {
		t.Fatalf("realized mean cost %.4f vs DP expectation %.4f (%.1f%% off)",
			mean, expected, 100*rel)
	}
	t.Logf("realized mean %.4f vs DP expectation %.4f over %d trials", mean, expected, trials)
}

// TestPreparedManifest: an adaptive plan's first acquisition is the one
// it cannot skip: the first scheduled leaf when the plan falls back to
// the linear schedule, and the root leaf when it walks a decision tree.
func TestPreparedManifest(t *testing.T) {
	reg := uniformRegistry(3, []string{"u0", "u1"}, []float64{2, 5})
	eng := New(reg)
	q, err := eng.Compile("AVG(u0,3) > 0.2 [p=0.4] AND AVG(u1,2) > 0.3 [p=0.6]")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)

	// A gap no decision tree clears: the linear fallback.
	lin, err := q.PlanAdaptive(cache, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Root != nil {
		t.Fatalf("1e9-gap plan walks a decision tree: %+v", lin)
	}
	first := lin.Tree.Leaves[lin.Linear.Schedule[0]]
	k, d, ok := lin.FirstAcquisition()
	if !ok || k != int(first.Stream) || d != first.Items {
		t.Errorf("linear FirstAcquisition = (%d, %d, %v), want the first scheduled leaf (%d, %d)",
			k, d, ok, first.Stream, first.Items)
	}

	// A forced decision tree: the root is the only unconditional
	// acquisition. Drop the cached fallback so the DP's choice is fresh.
	q.InvalidatePlan()
	ap, err := q.PlanAdaptive(cache, -1)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Root == nil || ap.Root.Leaf < 0 {
		t.Fatalf("forced adaptive plan has no decision tree: %+v", ap)
	}
	root := ap.Tree.Leaves[ap.Root.Leaf]
	ak, ad, aok := ap.FirstAcquisition()
	if !aok || ak != int(root.Stream) || ad != root.Items {
		t.Errorf("adaptive FirstAcquisition = (%d, %d, %v), want the decision tree's root (%d, %d)",
			ak, ad, aok, root.Stream, root.Items)
	}
}
