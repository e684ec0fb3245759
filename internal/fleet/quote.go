// Marginal-cost quoting: the admission controller's price oracle. A
// quote answers "what would the fleet's joint expected cost become if
// this query joined?" without admitting it. It builds both plans the way
// PlanWeighted does — an exact fingerprint match is the cached plan, and
// otherwise the base entry's schedules that are not stale and within Eps
// are kept while the greedy places the rest — and returns the delta of
// the plan with the newcomer over the resident plan. So a quote, like a
// tick, re-places only residents that drifted past Eps since they were
// last placed, or whose detector tripped. Because the greedy's
// incremental accounting telescopes, appending the newcomer's units last
// against the residents' committed schedules prices exactly the marginal
// cost of its membership: near zero when it overlaps resident shapes and
// streams, the full independent price when it drags in streams nobody
// else reads. An empty resident fleet prices to zero, so the first
// query's quote is its own joint price.
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
// trees, weights) — planner state is read but never written. Both sides
// are built by the selection PlanWeighted runs, so the quote is the
// difference between the plan the planner would build on the first tick
// after admission and the resident plan, and an admitted query's
// realized plan delta matches its quote to within Eps drift. Weights
// follow PlanWeighted semantics (nil: all 1); the newcomer is quoted at
// weight 1. Quotes are clamped to >= 0: a newcomer whose overlap makes
// the joint plan cheaper than the resident plan is free, not negative.
func (pl *Planner) QuoteJoint(keys []string, trees []*query.Tree, weights []int, warm sched.Warm, key string, tree *query.Tree) float64 {
	allKeys := append(append(make([]string, 0, len(keys)+1), keys...), key)
	allTrees := append(append(make([]*query.Tree, 0, len(trees)+1), trees...), tree)
	var allWeights []int
	if weights != nil {
		allWeights = append(append(make([]int, 0, len(weights)+1), weights...), 1)
	}

	pl.mu.Lock()
	defer pl.mu.Unlock()
	resident := pl.selectLocked(cacheKey(keys), keys, trees, weights, warm).plan
	withNew := pl.selectLocked(cacheKey(allKeys), allKeys, allTrees, allWeights, warm).plan
	return max(withNew.Expected-resident.Expected, 0)
}
