package service

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"paotr/internal/corpus"
	"paotr/internal/engine"
	"paotr/internal/stream"
)

// cseRegistry builds a CSE fleet's stream space. Stream content is
// seeded per stream index, so two registries built from the same config
// serve identical items.
func cseRegistry(tb testing.TB, cfg corpus.CSEConfig) *stream.Registry {
	tb.Helper()
	reg := stream.NewRegistry()
	for i, name := range cfg.StreamNames() {
		if err := reg.Add(stream.Uniform(name, uint64(i+1)), stream.CostModel{BaseJoules: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// cseService builds a service over a CSE fleet's stream space and
// registers every tenant.
func cseService(tb testing.TB, cfg corpus.CSEConfig, opts ...Option) *Service {
	tb.Helper()
	svc := New(cseRegistry(tb, cfg), opts...)
	for _, q := range corpus.CSEFleet(cfg) {
		if err := svc.Register(q.ID, q.Text); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// cseWorkload compiles a CSE fleet, in registration order, into the
// per-query baseline (see newWorkload).
func cseWorkload(tb testing.TB, cfg corpus.CSEConfig) *engine.Workload {
	tb.Helper()
	var texts []string
	for _, q := range corpus.CSEFleet(cfg) {
		texts = append(texts, q.Text)
	}
	return newWorkload(tb, cseRegistry(tb, cfg), texts...)
}

// Property: on a fleet where every query's shape is unique, shape
// factoring is a pure no-op. Every tenant leads its own class, no
// execution is shared, and every verdict is byte-identical to the
// per-query baseline's, tick for tick.
func TestShapeFactoringAllUniqueByteIdentical(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 24, Shapes: 24, Streams: 8, Seed: 41}
	const ticks = 60
	fleet := corpus.CSEFleet(cfg)
	svc := cseService(t, cfg, WithWorkers(1))
	base, err := cseWorkload(t, cfg).Run(ticks)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range svc.Run(ticks) {
		if len(tr.Executions) != cfg.Tenants {
			t.Fatalf("tick %d: %d executions, want %d", tr.Tick, len(tr.Executions), cfg.Tenants)
		}
		for i, e := range tr.Executions {
			if e.ID != fleet[i].ID || e.Err != "" || e.Value != base[ti].Results[i].Value {
				t.Fatalf("tick %d tenant %s: verdict (%v, %q), baseline %v",
					tr.Tick, fleet[i].ID, e.Value, e.Err, base[ti].Results[i].Value)
			}
			if e.Shared {
				t.Fatalf("tick %d: tenant %s of a unique shape flagged Shared", tr.Tick, e.ID)
			}
		}
	}
	m := svc.Metrics()
	if m.SharedExecutions != 0 {
		t.Errorf("all-unique fleet shared %d executions, want 0", m.SharedExecutions)
	}
	if m.DistinctShapes != cfg.Tenants || m.ShapeSubscribers != cfg.Tenants {
		t.Errorf("census %d shapes / %d subscribers, want %d / %d",
			m.DistinctShapes, m.ShapeSubscribers, cfg.Tenants, cfg.Tenants)
	}
	if want := int64(ticks * cfg.Tenants); m.Executions != want {
		t.Errorf("Executions = %d, want %d", m.Executions, want)
	}
}

// Property: over random duplicated-shape fleets, shape factoring
// delivers every tenant exactly the verdict the per-query baseline
// computes for it, tick for tick. Within a tick every twin equals its
// class leader (the first tenant of its shape) except for its ID, pays
// nothing and is flagged Shared.
func TestShapeFactoringMatchesPerTenantBaseline(t *testing.T) {
	const ticks = 12
	for trial := 0; trial < 100; trial++ {
		cfg := corpus.CSEConfig{
			Tenants: 8 + trial%9,
			Shapes:  1 + trial%5,
			Streams: 3 + trial%5,
			Seed:    uint64(1000 + trial),
		}
		fleet := corpus.CSEFleet(cfg)
		svc := cseService(t, cfg)
		base, err := cseWorkload(t, cfg).Run(ticks)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tr := range svc.Run(ticks) {
			for i, e := range tr.Executions {
				if e.ID != fleet[i].ID || e.Err != "" || e.Value != base[ti].Results[i].Value {
					t.Fatalf("trial %d (%d tenants / %d shapes) tick %d tenant %s: verdict (%v, %q), baseline %v",
						trial, cfg.Tenants, cfg.Shapes, tr.Tick, fleet[i].ID, e.Value, e.Err, base[ti].Results[i].Value)
				}
				lead := tr.Executions[fleet[i].Shape]
				if i == fleet[i].Shape {
					if e.Shared {
						t.Fatalf("trial %d tick %d: leader %s flagged Shared", trial, tr.Tick, e.ID)
					}
					continue
				}
				if !e.Shared || e.Cost != 0 {
					t.Fatalf("trial %d tick %d: twin %s not shared for free: %+v", trial, tr.Tick, e.ID, e)
				}
				twin := e
				twin.ID, twin.Cost, twin.Shared = lead.ID, lead.Cost, false
				if twin != lead {
					t.Fatalf("trial %d tick %d: twin %s diverged from leader:\ntwin   %+v\nleader %+v", trial, tr.Tick, e.ID, e, lead)
				}
			}
		}
		m := svc.Metrics()
		if want := int64(ticks * (cfg.Tenants - cfg.Shapes)); m.DistinctShapes != cfg.Shapes || m.SharedExecutions != want {
			t.Fatalf("trial %d: census %d shapes / %d shared, want %d / %d",
				trial, m.DistinctShapes, m.SharedExecutions, cfg.Shapes, want)
		}
	}
}

// Property: with the full pipeline on the tick worker pool (joint fleet
// planning over the distinct shapes, batching, windowed estimator),
// every tenant still receives the per-query baseline's verdict. Costs
// may differ from the baseline's — the joint planner orders pulls across
// classes, so schedules and short-circuit pulls legitimately change —
// but truth values cannot. The joint planner must actually have run.
func TestShapeFactoringVerdictsMatchFleetPlanned(t *testing.T) {
	const ticks = 12
	for trial := 0; trial < 20; trial++ {
		cfg := corpus.CSEConfig{
			Tenants: 10 + trial%7,
			Shapes:  2 + trial%4,
			Streams: 4 + trial%3,
			Seed:    uint64(7000 + trial),
		}
		svc := cseService(t, cfg, WithWorkers(4))
		base, err := cseWorkload(t, cfg).Run(ticks)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tr := range svc.Run(ticks) {
			for i, e := range tr.Executions {
				want := base[ti].Results[i]
				if e.Err != "" || e.Value != want.Value {
					t.Fatalf("trial %d tick %d tenant %s: verdict (%v, %q), baseline %v",
						trial, tr.Tick, e.ID, e.Value, e.Err, want.Value)
				}
			}
		}
		if m := svc.Metrics(); m.FleetPlans == 0 {
			t.Fatalf("trial %d: the joint planner never ran (%d plans, %d reuses)",
				trial, m.FleetPlans, m.FleetPlanReuses)
		}
	}
}

// A duplicated fleet ticks through a probability regime shift: the
// Page-Hinkley trip on the shared estimator-driven predicate must
// invalidate the one shape-class plan, and every subscriber must observe
// the leader's replanned execution — twins stay equal to the leader
// through the shift, and the modelled cost visibly moves.
func TestDriftTripReplansShapeClassForAllSubscribers(t *testing.T) {
	rcfg := corpus.RegimeConfig{Seed: 17, ShiftStep: 120}
	reg := corpus.RegimeRegistry(rcfg)
	svc := New(reg, WithWorkers(1))
	text := corpus.RegimeQueries(rcfg)[0] // estimator-driven predicates
	const twins = 10
	for i := 0; i < twins; i++ {
		if err := svc.Register(fmt.Sprintf("t%d", i), text); err != nil {
			t.Fatal(err)
		}
	}
	if m := svc.Metrics(); m.DistinctShapes != 1 || m.ShapeSubscribers != twins {
		t.Fatalf("got %d shapes / %d subscribers, want 1 / %d", m.DistinctShapes, m.ShapeSubscribers, twins)
	}
	results := svc.Run(2 * int(rcfg.ShiftStep))
	expChangedAt := int64(0)
	var prevExp float64
	for ti, tr := range results {
		lead := tr.Executions[0]
		if lead.Shared {
			t.Fatalf("tick %d: leader execution flagged Shared", tr.Tick)
		}
		for _, e := range tr.Executions[1:] {
			if !e.Shared {
				t.Fatalf("tick %d: twin %s not shared", tr.Tick, e.ID)
			}
			if e.Value != lead.Value || e.ExpectedCost != lead.ExpectedCost || e.Evaluated != lead.Evaluated {
				t.Fatalf("tick %d: twin %s diverged from leader:\ntwin   %+v\nleader %+v", tr.Tick, e.ID, e, lead)
			}
			if e.Cost != 0 {
				t.Fatalf("tick %d: twin %s paid %.3f, want 0", tr.Tick, e.ID, e.Cost)
			}
		}
		if ti > int(rcfg.ShiftStep) && expChangedAt == 0 && prevExp != 0 && lead.ExpectedCost != prevExp {
			expChangedAt = tr.Tick
		}
		prevExp = lead.ExpectedCost
	}
	m := svc.Metrics()
	if m.PredicateDetectorTrips == 0 {
		t.Error("no predicate detector trips across the regime shift")
	}
	if m.ReplansForced == 0 {
		t.Error("detector trips forced no replans")
	}
	if expChangedAt == 0 {
		t.Error("no subscriber observed a post-shift replan (expected cost never moved)")
	}
	if m.SharedExecutions != int64(len(results))*(twins-1) {
		t.Errorf("SharedExecutions = %d, want %d", m.SharedExecutions, int64(len(results))*(twins-1))
	}
}

// TestCommutedTwinSharesClassPlan: a commuted twin (Y AND X registered
// beside X AND Y) interns into the class and runs the class's compiled
// query, so the cached joint schedule always meets the leaf order it was
// planned for, whichever member leads. With the cheap, always-FALSE leaf
// first (C/p 4 against 10), every leader evaluates one leaf for 2 J:
// 8 ticks pay 16 J, and the 4 ticks both members are due add 4 shared
// evaluations to the 8 the leaders make.
func TestCommutedTwinSharesClassPlan(t *testing.T) {
	svc := New(priced2and5(t), WithWorkers(1))
	if err := svc.Register("xy", "c1 > 5 [p=0.5] AND c2 > 0 [p=0.5]", Every(2)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("yx", "c2 > 0 [p=0.5] AND c1 > 5 [p=0.5]"); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.DistinctShapes != 1 {
		t.Fatalf("distinct shapes = %d, want 1", m.DistinctShapes)
	}
	for _, tr := range svc.Run(8) {
		for _, e := range tr.Executions {
			if e.Err != "" || e.Value {
				t.Fatalf("tick %d %s: %+v, want FALSE without error", tr.Tick, e.ID, e)
			}
			if !e.Shared && e.Evaluated != 1 {
				t.Errorf("tick %d leader %s evaluated %d leaves, want 1", tr.Tick, e.ID, e.Evaluated)
			}
		}
	}
	if m := svc.Metrics(); m.PaidCost != 16 || m.PredicatesEvaluated != 12 {
		t.Errorf("class paid %v J over %d predicates, want 16 J over 12", m.PaidCost, m.PredicatesEvaluated)
	}
}

// Unregistering one subscriber must leave the class live for the rest —
// the remaining twins keep observing executions, and the cached joint
// plan survives (no staleness marks, pure reuse).
func TestUnregisterSubscriberKeepsClassLive(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 6, Shapes: 2, Streams: 4, Seed: 5}
	svc := cseService(t, cfg, WithWorkers(1))
	svc.Run(5)
	before := svc.Metrics()
	if before.DistinctShapes != 2 {
		t.Fatalf("DistinctShapes = %d, want 2", before.DistinctShapes)
	}
	if err := svc.Unregister("t2"); err != nil { // shape 0 subscriber, not the leader
		t.Fatal(err)
	}
	after := svc.Metrics()
	if after.DistinctShapes != 2 || after.ShapeSubscribers != cfg.Tenants-1 {
		t.Fatalf("after unregister: %d shapes / %d subscribers, want 2 / %d",
			after.DistinctShapes, after.ShapeSubscribers, cfg.Tenants-1)
	}
	reuses := after.FleetPlanReuses
	tr := svc.Tick()
	if got := len(tr.Executions); got != cfg.Tenants-1 {
		t.Fatalf("%d executions after unregister, want %d", got, cfg.Tenants-1)
	}
	final := svc.Metrics()
	if final.FleetPlanReuses <= reuses {
		t.Errorf("unregistering one subscriber broke the joint plan cache (reuses %d -> %d)",
			reuses, final.FleetPlanReuses)
	}
	// And the last subscriber's departure kills the class.
	for _, id := range []string{"t0", "t4"} {
		if err := svc.Unregister(id); err != nil {
			t.Fatal(err)
		}
	}
	if m := svc.Metrics(); m.DistinctShapes != 1 {
		t.Errorf("DistinctShapes = %d after shape 0 fully unregistered, want 1", m.DistinctShapes)
	}
}

// Registering a twin of an already-planned shape must be a pure
// plan-cache hit: no staleness marks, so the next tick reuses the cached
// joint plan.
func TestTwinRegistrationIsPurePlanCacheHit(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 4, Shapes: 2, Streams: 4, Seed: 9}
	svc := cseService(t, cfg, WithWorkers(1))
	svc.Run(20) // enough ticks for warm windows and estimator drift to stabilize
	fleet := corpus.CSEFleet(cfg)
	if err := svc.Register("twin-late", fleet[0].Text); err != nil {
		t.Fatal(err)
	}
	before := svc.Metrics()
	svc.Tick()
	after := svc.Metrics()
	if after.FleetPlanReuses != before.FleetPlanReuses+1 {
		t.Errorf("twin registration forced planner work: reuses %d -> %d (want +1)",
			before.FleetPlanReuses, after.FleetPlanReuses)
	}
	if after.DistinctShapes != 2 {
		t.Errorf("DistinctShapes = %d after twin registration, want 2", after.DistinctShapes)
	}
}

// TestShapeChurnStress registers and unregisters shape twins from
// concurrent goroutines while the fleet ticks — the -race surface for
// the class interning, leader election and fan-out paths.
func TestShapeChurnStress(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 12, Shapes: 3, Streams: 6, Seed: 13}
	svc := cseService(t, cfg, WithWorkers(4))
	fleet := corpus.CSEFleet(cfg)
	stop := make(chan struct{})
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				svc.Tick()
			}
		}
	}()
	const churners = 4
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 99))
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("churn-%d-%d", c, i)
				text := fleet[rng.IntN(len(fleet))].Text
				if err := svc.Register(id, text); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				if rng.IntN(2) == 0 {
					svc.Tick()
				}
				if err := svc.Unregister(id); err != nil {
					t.Errorf("unregister %s: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-tickerDone
	m := svc.Metrics()
	if m.DistinctShapes != cfg.Shapes {
		t.Errorf("DistinctShapes = %d after churn, want %d", m.DistinctShapes, cfg.Shapes)
	}
	if m.ShapeSubscribers != cfg.Tenants {
		t.Errorf("ShapeSubscribers = %d after churn, want %d", m.ShapeSubscribers, cfg.Tenants)
	}
}

// TestAdaptiveTwinsSplitByGapThreshold: adaptive executors with different
// gap thresholds execute one text differently — a negative gap always
// walks the decision tree, a 1e9 gap never does — so their twins intern
// into two classes, register and quote alike, and neither serves the
// other's verdict.
func TestAdaptiveTwinsSplitByGapThreshold(t *testing.T) {
	const text = "AVG(heart-rate,5) > 100 AND accelerometer < 12"
	svc := New(testRegistry(3), WithWorkers(1))
	tree := WithQueryExecutor(engine.AdaptiveExecutor{GapThreshold: -1})
	never := WithQueryExecutor(engine.AdaptiveExecutor{GapThreshold: 1e9})
	if err := svc.Register("tree", text, tree); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("linear", text, never); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.DistinctShapes != 2 {
		t.Errorf("distinct shapes = %d, want 2", m.DistinctShapes)
	}
	for _, tr := range svc.Run(5) {
		for _, e := range tr.Executions {
			want := engine.StrategyAdaptive
			if e.ID == "linear" {
				want = engine.StrategyLinear
			}
			if e.Strategy != want || e.Shared {
				t.Errorf("tick %d %s: strategy %q shared %v, want %q unshared", tr.Tick, e.ID, e.Strategy, e.Shared, want)
			}
		}
	}
	if q, err := svc.QuoteRegister("twin", text, never); err != nil || !q.SharedShape {
		t.Errorf("quote of a 1e9-gap twin = %+v, %v; want a shared shape", q, err)
	}
	if q, err := svc.QuoteRegister("other", text, WithQueryExecutor(engine.AdaptiveExecutor{GapThreshold: 0.5})); err != nil || q.SharedShape {
		t.Errorf("quote under a third gap threshold = %+v, %v; want a new shape", q, err)
	}
}
