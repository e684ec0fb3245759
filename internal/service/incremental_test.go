package service

import (
	"fmt"
	"sync"
	"testing"

	"paotr/internal/engine"
)

// TestServiceIncrementalPlanOnChurn: registering or unregistering a query
// between ticks must patch the cached joint plan — survivors keep their
// schedules, only the delta is replanned — instead of replanning the
// whole fleet, and steady-state reuse must resume right after.
func TestServiceIncrementalPlanOnChurn(t *testing.T) {
	svc := New(overlapRegistry(t, 6, 17), WithWorkers(1),
		WithEngineOptions(engine.WithReplanThreshold(0.05)))
	overlapFleet(t, svc, 5) // tenants 0..4; private5 stays free for growth
	tickAll(t, svc, 5)
	base := svc.Metrics()
	if base.FleetPlanIncremental != 0 {
		t.Fatalf("stable fleet patched %d plans before any churn", base.FleetPlanIncremental)
	}

	if err := svc.Register("tenant5",
		"(AVG(shared,4) > 0.2 [p=0.5]) OR (AVG(private5,4) > 0.2 [p=0.5])"); err != nil {
		t.Fatal(err)
	}
	tickAll(t, svc, 1)
	grown := svc.Metrics()
	if grown.FleetPlanIncremental != base.FleetPlanIncremental+1 {
		t.Errorf("register tick: %d incremental plans, want %d — registration full-replanned the fleet",
			grown.FleetPlanIncremental, base.FleetPlanIncremental+1)
	}

	if err := svc.Unregister("tenant2"); err != nil {
		t.Fatal(err)
	}
	tickAll(t, svc, 1)
	shrunk := svc.Metrics()
	if shrunk.FleetPlanIncremental != grown.FleetPlanIncremental+1 {
		t.Errorf("unregister tick: %d incremental plans, want %d — unregistration full-replanned the fleet",
			shrunk.FleetPlanIncremental, grown.FleetPlanIncremental+1)
	}

	// The patched plan is stored like any other: a stable fleet reuses it.
	tickAll(t, svc, 3)
	after := svc.Metrics()
	if after.FleetPlanReuses <= shrunk.FleetPlanReuses {
		t.Errorf("no plan reuse after churn settled (%d -> %d reuses)",
			shrunk.FleetPlanReuses, after.FleetPlanReuses)
	}
	if after.PlanNanos <= 0 {
		t.Error("plan_ns not accounted")
	}
}

// TestServiceCountsPlacedClasses: fleet_placed_classes counts the classes
// the joint greedy placed — the whole fleet on the first plan, none while
// the plan is reused, the newcomer alone when a registration patches it,
// and nothing when an unregistration only drops a class.
func TestServiceCountsPlacedClasses(t *testing.T) {
	svc := New(overlapRegistry(t, 6, 17), WithWorkers(1),
		WithEngineOptions(engine.WithReplanThreshold(0.05)))
	overlapFleet(t, svc, 5)
	tickAll(t, svc, 5)
	base := svc.Metrics()
	scratch := base.FleetPlans - base.FleetPlanReuses - base.FleetPlanIncremental
	if base.FleetPlanIncremental != 0 || base.FleetPlanReuses == 0 || base.FleetPlacedClasses != 5*scratch {
		t.Fatalf("stable fleet of 5 classes: %d classes placed over %d plans (%d reused, %d patched), want 5 per plan from scratch",
			base.FleetPlacedClasses, base.FleetPlans, base.FleetPlanReuses, base.FleetPlanIncremental)
	}
	if err := svc.Register("tenant5",
		"(AVG(shared,4) > 0.2 [p=0.5]) OR (AVG(private5,4) > 0.2 [p=0.5])"); err != nil {
		t.Fatal(err)
	}
	tickAll(t, svc, 1)
	grown := svc.Metrics()
	if grown.FleetPlanIncremental != 1 || grown.FleetPlacedClasses != base.FleetPlacedClasses+1 {
		t.Fatalf("registration tick: %d patches placing %d classes, want 1 patch placing the newcomer",
			grown.FleetPlanIncremental, grown.FleetPlacedClasses-base.FleetPlacedClasses)
	}
	if err := svc.Unregister("tenant2"); err != nil {
		t.Fatal(err)
	}
	tickAll(t, svc, 3)
	if m := svc.Metrics(); m.FleetPlanIncremental != 2 || m.FleetPlacedClasses != grown.FleetPlacedClasses {
		t.Fatalf("unregistration ticks: %d patches placing %d classes, want 1 more patch placing none",
			m.FleetPlanIncremental-grown.FleetPlanIncremental, m.FleetPlacedClasses-grown.FleetPlacedClasses)
	}
}

// TestServiceDriftTripPatchesPlan: a cost-detector trip on one stream
// must mark stale exactly the queries reading that stream, and the next
// tick must absorb the shift by patching the joint plan — not by
// dropping the whole plan cache.
func TestServiceDriftTripPatchesPlan(t *testing.T) {
	reg := overlapRegistry(t, 6, 19)
	svc := New(reg, WithWorkers(1), WithEngineOptions(engine.WithReplanThreshold(0.05)))
	overlapFleet(t, svc, 6)
	tickAll(t, svc, 20)
	before := svc.Metrics()

	// Feed the estimator a sustained per-item price shift on private0 —
	// only tenant0 reads it. The trip fires the service's subscription,
	// which buffers it for the next tick.
	ad := svc.Adaptive()
	k, ok := reg.IndexOf("private0")
	if !ok {
		t.Fatal("private0 missing from registry")
	}
	_, trips0 := ad.Trips()
	for i := 0; i < 15; i++ {
		ad.ObserveCost(k, 7, 1)
	}
	for i := 0; i < 10; i++ {
		ad.ObserveCost(k, 42, 8)
	}
	if _, trips := ad.Trips(); trips == trips0 {
		t.Fatal("price shift did not trip the cost detector")
	}

	tickAll(t, svc, 1)
	after := svc.Metrics()
	if after.FleetPlanIncremental <= before.FleetPlanIncremental {
		t.Errorf("drift trip full-replanned the fleet: %d incremental plans before and after",
			before.FleetPlanIncremental)
	}
	if after.ReplansForced <= before.ReplansForced {
		t.Errorf("drift trip forced no replan: %d -> %d", before.ReplansForced, after.ReplansForced)
	}
}

// TestConcurrentRegisterUnregisterStress churns a four-digit number of
// registrations against a continuously ticking service — the
// registration-storm scenario the incremental planner exists for. Run
// under -race in CI, it exercises Register/Unregister/Tick interleaving,
// the buffered detector trips and the lock-free cache fast path at fleet
// scale.
func TestConcurrentRegisterUnregisterStress(t *testing.T) {
	const privates = 8
	churn := 1000
	if testing.Short() {
		churn = 120
	}
	svc := New(overlapRegistry(t, privates, 31), WithWorkers(4))
	overlapFleet(t, svc, privates)

	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range svc.Tick().Executions {
					if e.Err != "" {
						t.Errorf("tick %d query %s: %s", svc.Metrics().Ticks, e.ID, e.Err)
						return
					}
				}
			}
		}
	}()

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < churn; i += writers {
				id := fmt.Sprintf("churn%d", i)
				text := fmt.Sprintf(
					"(AVG(shared,4) > 0.2 [p=0.5]) OR (AVG(private%d,4) > 0.2 [p=0.5])", i%privates)
				if err := svc.Register(id, text); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := svc.Unregister(id); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ticker.Wait()

	tickAll(t, svc, 2)
	m := svc.Metrics()
	if want := privates + churn/2; m.Queries != want {
		t.Errorf("%d queries registered after churn, want %d", m.Queries, want)
	}
	if m.FleetPlans == 0 || m.FleetPlannedExecutions == 0 {
		t.Errorf("churned service did no joint planning: %+v", m)
	}
	t.Logf("churn=%d: %d ticks, %d joint plans (%d reused, %d incremental), plan time %.1fms",
		churn, m.Ticks, m.FleetPlans, m.FleetPlanReuses, m.FleetPlanIncremental,
		float64(m.PlanNanos)/1e6)
}
