// Marginal-cost quoting: the admission controller's price oracle. A
// quote answers "what would the fleet's joint expected cost become if
// this query joined?" without admitting it, against the Planner's
// resident joint state (see resident.go) rather than by planning the
// fleet twice.
//
// The quote is the delta PlanWeighted realizes when it keeps every
// resident's current schedule and places the newcomer. Because the joint
// cost telescopes to its closed form, keeping the residents costs G, the
// resident total over their current schedules, and placing the
// newcomer's AND units greedily against their per-item products G(k, d)
// adds g. The guardrail's side costs I + i: I over the residents'
// independent orders, i the newcomer's independent order against their
// products I(k, d). So the quote is max(min(G+g, I+i) - G, 0). The state
// keeps per-stream sums of G and I against the cache state of the last
// admission, so a quote reads only the products on the newcomer's items,
// O(the newcomer's leaves) however large the fleet. When the cache state
// has moved since, it sums each resident item once instead: bounded by
// the streams' windows, not by the number of classes. The price is near
// zero when the newcomer overlaps resident shapes and streams, and its
// full independent price when it drags in streams nobody else reads. An
// empty resident state prices the first query at its own joint price.
//
// The state refreshes a class only when a plan re-places it, so a
// resident that went stale or drifted since its last placement is priced
// at the schedule it still holds: the next tick re-places it, not the
// quote. Quote is a strict dry run: it writes no planner state, so a
// quote followed by a rejection leaves the planner byte-identical to
// never having asked (pinned by TestQuoteThenRejectLeavesPlansIdentical).
package fleet

import (
	"paotr/internal/query"
	"paotr/internal/sched"
)

// Quote prices the marginal joint cost, in expected J per planned tick,
// of adding tree to the resident classes at cache state warm, with the
// tree's per-item costs. Planner state is read but never written. The
// marginal equals the delta of the plan that keeps every resident's
// current schedule and places the newcomer (see the file doc), clamped
// to >= 0: a newcomer whose overlap makes the joint plan cheaper than the
// resident plan is free, not negative. alone is the tree's price planned
// on its own at warm — the no-sharing price the marginal discounts, equal
// to PlanJoint's for a one-tree fleet. warm should cover the resident
// items: an item past its rows reads as uncached.
func (pl *Planner) Quote(tree *query.Tree, warm sched.Warm) (marginal, alone float64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pr := pl.res.price(tree, warm, false)
	return pr.quote, pr.alone
}

// Admit adds class key, whose query is tree, to the resident state: it
// commits the greedy placement its Quote at warm priced, and its
// independent order at warm. The next plan that re-places the class
// refreshes both. Admitting a resident key replaces its schedules.
func (pl *Planner) Admit(key string, tree *query.Tree, warm sched.Warm) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	r := &pl.res
	pr := r.price(tree, warm, true)
	r.set(key, tree, pr.placed, pr.indep)
	r.rebase(warm)
	r.resum()
}

// Remove drops class key from the resident state (a no-op when it is not
// resident). Cached plans are left alone: a due set without the class
// misses its cache key, and the next plan keeps the rest.
func (pl *Planner) Remove(key string) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.res.remove(key)
}
