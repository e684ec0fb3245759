package main

import (
	"fmt"
	"math"

	"paotr/internal/service"
)

// counters are the runtime's deterministic work counters: equal inputs
// give equal counts, so the untraced and traced runs must agree on them.
type counters struct {
	Paid        float64
	Executions  int64
	Shared      int64
	Plans       int64
	Reuses      int64
	Patched     int64
	Predicates  int64
	PlanHits    int64
	Requested   int64
	Transferred int64
	DupAvoided  int64
	RelayHits   int64
	CrossDup    int64
	Trips       int64
	Forced      int64
}

func countersOf(m *service.Metrics) counters {
	return counters{
		Paid:        m.PaidCost,
		Executions:  m.Executions,
		Shared:      m.SharedExecutions,
		Plans:       m.FleetPlans,
		Reuses:      m.FleetPlanReuses,
		Patched:     m.FleetPlanIncremental,
		Predicates:  m.PredicatesEvaluated,
		PlanHits:    m.PlanCacheHits,
		Requested:   m.CacheRequested,
		Transferred: m.CacheTransferred,
		DupAvoided:  m.DuplicatePullsAvoided,
		RelayHits:   m.RelayHits,
		CrossDup:    m.CrossShardDuplicateTransfers,
		Trips:       m.PredicateDetectorTrips + m.CostDetectorTrips,
		Forced:      m.ReplansForced,
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		Paid:        c.Paid - o.Paid,
		Executions:  c.Executions - o.Executions,
		Shared:      c.Shared - o.Shared,
		Plans:       c.Plans - o.Plans,
		Reuses:      c.Reuses - o.Reuses,
		Patched:     c.Patched - o.Patched,
		Predicates:  c.Predicates - o.Predicates,
		PlanHits:    c.PlanHits - o.PlanHits,
		Requested:   c.Requested - o.Requested,
		Transferred: c.Transferred - o.Transferred,
		DupAvoided:  c.DupAvoided - o.DupAvoided,
		RelayHits:   c.RelayHits - o.RelayHits,
		CrossDup:    c.CrossDup - o.CrossDup,
		Trips:       c.Trips - o.Trips,
		Forced:      c.Forced - o.Forced,
	}
}

// parity lists every way the traced run differs from the untraced run
// of the same inputs in configuration or in decisions. Paid joules are
// summed from per-execution costs whose split depends on which worker
// pulled an item first, so they are compared to 1e-9 relative. Some
// counters vary between identical untraced in-process runs, so they are
// left out where they do: duplicate pulls avoided under the relay, and
// under churn the joint planner's patches and what follows from them —
// predicates evaluated, items requested, duplicate pulls avoided,
// detector trips and forced replans. Every other counter must be equal.
func parity(w *Workload, e *e2eRun, t *tracedRun) []string {
	var diffs []string
	same := func(what string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s: e2e %v, traced %v", what, a, b))
		}
	}
	er := e.reps[0]
	ea, ta := &er.after, &t.after
	same("shards", ea.Shards, ta.Shards)
	same("relay_transfer_frac", ea.RelayTransferFrac, ta.RelayTransferFrac)
	same("shape_factoring", ea.ShapeFactoring, ta.ShapeFactoring)
	same("estimator", ea.Estimator, ta.Estimator)
	same("estimator_window", ea.EstimatorWindow, ta.EstimatorWindow)
	if ea.Admission == nil || ta.Admission == nil {
		diffs = append(diffs, "admission: missing from the metrics")
	} else {
		a, b := ea.Admission, ta.Admission
		same("admission.slo_gold_ns", a.SLOGoldNs, b.SLOGoldNs)
		same("admission.slo_silver_ns", a.SLOSilverNs, b.SLOSilverNs)
		same("admission.slo_bronze_ns", a.SLOBronzeNs, b.SLOBronzeNs)
		same("admission.window_ticks", a.WindowTicks, b.WindowTicks)
		same("admission.refill_j_per_tick", a.RefillJPerTick, b.RefillJPerTick)
		same("admission.burst_j", a.BurstJ, b.BurstJ)
	}
	same("distinct_shapes", ea.DistinctShapes, ta.DistinctShapes)
	if w.Shapes > 0 && ea.DistinctShapes != w.Shapes {
		diffs = append(diffs, fmt.Sprintf("distinct_shapes: %d, want %d", ea.DistinctShapes, w.Shapes))
	}
	ce := countersOf(ea).sub(countersOf(&er.before))
	ct := countersOf(ta).sub(countersOf(&t.before))
	if d := math.Abs(ce.Paid - ct.Paid); d > 1e-9*math.Max(math.Abs(ce.Paid), 1) {
		diffs = append(diffs, fmt.Sprintf("paid J over the measured ticks: e2e %.12g, traced %.12g", ce.Paid, ct.Paid))
	}
	for _, c := range []*counters{&ce, &ct} {
		c.Paid = 0
		if w.RelayFrac > 0 || w.Churn > 0 {
			c.DupAvoided = 0
		}
		if w.Churn > 0 {
			c.Patched, c.Predicates, c.Requested, c.Trips, c.Forced = 0, 0, 0, 0, 0
		}
	}
	same("work counters over the measured ticks", ce, ct)
	return diffs
}
