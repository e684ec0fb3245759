package engine

import (
	"math"
	"testing"

	"paotr/internal/adapt"
	"paotr/internal/stream"
)

// adaptRegistry builds two constant streams with distinct costs.
func adaptRegistry(t *testing.T) *stream.Registry {
	t.Helper()
	reg := stream.NewRegistry()
	if err := reg.Add(stream.Constant("c1", 1), stream.CostModel{BaseJoules: 2}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(stream.Constant("c2", 1), stream.CostModel{BaseJoules: 5}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestWithEstimatorDrivesPlanning: with a windowed estimator installed,
// plan-time leaf probabilities come from it, and outcomes are recorded
// into it alone: the cumulative store stays empty.
func TestWithEstimatorDrivesPlanning(t *testing.T) {
	ad := adapt.NewWindowed(adapt.Config{Window: 8})
	e := New(adaptRegistry(t), WithEstimator(ad))
	q, err := e.Compile("c1 > 0")
	if err != nil {
		t.Fatal(err)
	}
	key := q.Preds[0].P.String()
	// 20 successes then 8 failures: the window only remembers failures.
	for i := 0; i < 20; i++ {
		e.record(key, true)
	}
	for i := 0; i < 8; i++ {
		e.record(key, false)
	}
	want, _ := ad.Estimate(key)
	if got := q.Tree().Leaves[0].Prob; math.Abs(got-want) > 1e-12 {
		t.Errorf("plan-time prob = %v, want windowed %v", got, want)
	}
	if want > 0.2 {
		t.Errorf("windowed estimate %v should reflect only the failing window", want)
	}
	if n := e.Traces().Len(); n != 0 {
		t.Errorf("cumulative store tracks %d predicates, want 0: outcomes go to the estimator alone", n)
	}
}

// TestLearnedCostsRepriceTrees: once the cost source has observations,
// plan-time stream costs come from it instead of the static registry
// models.
func TestLearnedCostsRepriceTrees(t *testing.T) {
	ad := adapt.NewWindowed(adapt.Config{})
	e := New(adaptRegistry(t), WithEstimator(ad), WithCostSource(ad))
	q, err := e.Compile("c1 > 0 AND c2 > 0")
	if err != nil {
		t.Fatal(err)
	}
	tr := q.Tree()
	if tr.Streams[0].Cost != 2 || tr.Streams[1].Cost != 5 {
		t.Fatalf("static costs = %v, %v; want 2 and 5", tr.Streams[0].Cost, tr.Streams[1].Cost)
	}
	ad.ObserveCost(0, 9, 1)
	tr = q.Tree()
	if tr.Streams[0].Cost != 9 {
		t.Errorf("stream 0 cost = %v after observation, want learned 9", tr.Streams[0].Cost)
	}
	if tr.Streams[1].Cost != 5 {
		t.Errorf("stream 1 cost = %v, want static 5 (no observations)", tr.Streams[1].Cost)
	}
}

// TestUnreadStreamCostKeepsPlans: a learned cost change on a stream the
// query never reads cannot move its schedule or its price, so both plan
// caches keep reusing — the same drift test the fleet planner applies.
func TestUnreadStreamCostKeepsPlans(t *testing.T) {
	ad := adapt.NewWindowed(adapt.Config{})
	e := New(adaptRegistry(t), WithEstimator(ad), WithCostSource(ad))
	q, err := e.Compile("c1 > 0 [p=0.5]")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)
	if _, err := q.PlanAdaptive(cache, 0); err != nil {
		t.Fatal(err)
	}
	ad.ObserveCost(1, 9, 1) // c2: the query reads only c1
	p, err := q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Reused {
		t.Error("Plan re-planned after a cost change on an unread stream")
	}
	ap, err := q.PlanAdaptive(cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ap.Reused {
		t.Error("PlanAdaptive re-planned after a cost change on an unread stream")
	}
}

// TestCIGateKeepsLowEvidenceQueriesLinear: an adaptive-executor query
// whose leaf probabilities rest on no evidence (CI width 1) must fall
// back to the linear schedule even when the modelled gap clears the
// configured threshold, and must be allowed the tree once evidence
// accumulates.
func TestCIGateKeepsLowEvidenceQueriesLinear(t *testing.T) {
	reg := stream.NewRegistry()
	for i, n := range []string{"u1", "u2", "u3"} {
		if err := reg.Add(stream.Uniform(n, uint64(7+i)), stream.CostModel{BaseJoules: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ad := adapt.NewWindowed(adapt.Config{Window: 64})
	e := New(reg, WithEstimator(ad), WithReplanThreshold(-1))
	// The shared-stream counter-example shape where a decision tree beats
	// every fixed schedule; probabilities come from traces, not
	// annotations, so the CI gate applies.
	q, err := e.Compile("(MAX(u1,2) < 0.9 AND MAX(u2,2) < 0.7) OR (MAX(u1,3) < 0.8 AND MAX(u3,2) < 0.6)")
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
	if ap.CIWidth < 0.99 {
		t.Fatalf("CI width with no evidence = %v, want ~1", ap.CIWidth)
	}
	if ap.Root != nil {
		t.Error("decision tree chosen with zero evidence behind the estimates")
	}
	// Accumulate evidence, then re-plan: the gate narrows.
	for i := 0; i < 200; i++ {
		cache.Advance(1)
		if _, err := q.Execute(cache); err != nil {
			t.Fatal(err)
		}
	}
	cache.Advance(1)
	ap, err = q.PlanAdaptive(cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.CIWidth > 0.5 {
		t.Errorf("CI width after 200 executions = %v, want tightened", ap.CIWidth)
	}
	t.Logf("post-evidence: ciWidth=%.3f gap=%.3f root=%v", ap.CIWidth, ap.Gap(), ap.Root != nil)
}
