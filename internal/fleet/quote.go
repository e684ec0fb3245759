// Marginal-cost quoting: the admission controller's price oracle. A
// quote answers "what would the fleet's joint expected cost become if
// this query joined?" without admitting it — the delta of the
// incremental planner's patched joint plan over the resident plan.
// Because the greedy's incremental accounting telescopes, appending the
// newcomer's units last against the residents' committed schedules
// prices exactly the marginal cost of its membership: near zero when it
// overlaps resident shapes and streams, the full independent price when
// it drags in streams nobody else reads.
//
// QuoteJoint is a strict dry run. It never stores an entry, never
// clears a stale mark, and never touches a cached plan in place, so a
// quote followed by a rejection leaves the planner byte-identical to
// never having asked (pinned by TestQuoteThenRejectLeavesPlansIdentical).
package fleet

import (
	"paotr/internal/query"
	"paotr/internal/sched"
)

// QuoteJoint prices the marginal joint cost, in expected J per planned
// tick, of adding the query (key, tree) to the resident due set (keys,
// trees, weights) — planner state is read but never written. The quote
// is the difference between the patched joint plan including the
// newcomer and the resident joint plan, the same patch the planner
// would build on the first tick after admission, so an admitted query's
// realized plan delta matches its quote to within Eps drift. Weights
// follow PlanWeighted semantics (nil: all 1); the newcomer is quoted at
// weight 1. Quotes are clamped to >= 0: a newcomer whose overlap makes
// the patched plan cheaper than the resident plan is free, not negative.
func (pl *Planner) QuoteJoint(keys []string, trees []*query.Tree, weights []int, warm sched.Warm, key string, tree *query.Tree) float64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()

	if len(trees) == 0 {
		// Empty fleet: the newcomer's marginal cost is its own joint
		// (single-query greedy) price.
		return planJoint([]*query.Tree{tree}, nil, warm, false).Expected
	}

	resident := pl.expectedLocked(keys, trees, weights, warm)

	allKeys := append(append(make([]string, 0, len(keys)+1), keys...), key)
	allTrees := append(append(make([]*query.Tree, 0, len(trees)+1), trees...), tree)
	var allWeights []int
	if weights != nil {
		allWeights = append(append(make([]int, 0, len(weights)+1), weights...), 1)
	}
	withNew := pl.expectedLocked(allKeys, allTrees, allWeights, warm)

	q := withNew - resident
	if q < 0 {
		q = 0
	}
	return q
}

// expectedLocked prices a due set read-only: a cached entry whose
// fingerprint still matches is trusted at its stored price, an
// incremental patch is attempted next, and a from-scratch joint plan is
// the fallback. Mirrors PlanWeighted's selection order without any of
// its writes (no store, no stale clearing, no in-place repricing).
func (pl *Planner) expectedLocked(keys []string, trees []*query.Tree, weights []int, warm sched.Warm) float64 {
	ent := pl.entries[cacheKey(keys)]
	stale := 0
	if len(pl.stale) > 0 {
		for _, id := range keys {
			if _, ok := pl.stale[id]; ok {
				stale++
			}
		}
	}
	if ent != nil && stale == 0 && pl.Eps >= 0 && ent.warm.Equal(warm) {
		if drift := fleetDrift(ent.probs, ent.costs, trees); drift <= pl.Eps {
			if drift == 0 {
				return ent.plan.Expected
			}
			// Re-price the cached orders under the current probabilities
			// into a local total; PlanWeighted's reuse path would mutate
			// ent.plan here, a quote must not.
			schedules := make([]sched.Schedule, len(trees))
			for qi := range trees {
				schedules[qi] = ent.plan.Queries[qi].Schedule
			}
			_, total := priceJoint(trees, schedules, warm)
			return total
		}
	} else if (ent == nil || stale > 0) && pl.Eps >= 0 {
		if p := pl.patchLocked(ent, keys, trees, weights, warm); p != nil {
			return p.Expected
		}
	}
	return planJoint(trees, weights, warm, false).Expected
}
