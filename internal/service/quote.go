// Marginal-cost quoting on the serving runtimes: QuoteRegister prices a
// registration without performing it, the read-only front half of
// admission control. The plain service prices the newcomer against its
// planner's resident joint state (fleet.Planner.Quote) in O(the
// newcomer's leaves), at the cache state the next tick plans against: the
// newcomer first runs after that tick's Advance. Stale or drifted
// residents are re-placed by that tick, not by the quote. The sharded
// coordinator routes the quote to the worker the query would be placed
// on, in-process or remote, so the price reflects the sharing actually
// available there.
package service

import (
	"fmt"

	"paotr/internal/engine"
	"paotr/internal/query"
	"paotr/internal/sched"
)

// Quote is a registration's price tag: what admitting it would add to
// the fleet's planned acquisition energy.
type Quote struct {
	// MarginalJPerTick is the quoted marginal joint cost: the expected
	// J/tick the joint plan that keeps every resident class's current
	// schedule and places the newcomer costs over the resident plan, at
	// the next tick's cache state. Residents that went stale or drifted
	// are re-placed by that tick, not by the quote. Zero for a twin of a
	// resident shape.
	MarginalJPerTick float64 `json:"marginal_j_per_tick"`
	// IndependentJPerTick is what the same query would cost planned
	// alone at the next tick — the no-sharing price. The gap to
	// MarginalJPerTick is the overlap discount the resident fleet grants
	// the newcomer.
	IndependentJPerTick float64 `json:"independent_j_per_tick"`
	// SharedShape reports an exact twin: the query interns into an
	// already-resident shape class and executes by fan-out, adding no
	// planned acquisition at all.
	SharedShape bool `json:"shared_shape"`
}

// QuoteRegister prices registering (id, text, opts) against the current
// fleet without registering it and without mutating any planner or
// cache state. The id must be free; the text must compile. The quote
// equals the joint-plan delta the next tick realizes if the query is
// admitted and no resident went stale or drifted meanwhile (see
// fleet.Planner.Quote), so admission control can spend budgets in the
// same currency the planner accounts in.
func (s *Service) QuoteRegister(id, text string, opts ...QueryOption) (Quote, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.queries[id]; dup {
		return Quote{}, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	r := &registered{id: id, text: text, every: 1}
	for _, o := range opts {
		o(r)
	}
	var q *engine.Query
	c := s.textMemo[s.internKey(r, text)]
	if c == nil {
		compiled, err := s.eng.Compile(text)
		if err != nil {
			return Quote{}, fmt.Errorf("service: compiling %q: %w", id, err)
		}
		q = compiled
		c = s.classes[s.internKey(r, q.ShapeKey())]
	}
	if c != nil {
		// A twin of a resident shape: it runs the class's query and shares
		// the leader's execution and plan, so its marginal planned cost is
		// zero.
		_, alone := s.planner.Quote(s.nextTreeLocked(c.q))
		return Quote{SharedShape: true, IndependentJPerTick: alone}, nil
	}
	marginal, alone := s.planner.Quote(s.nextTreeLocked(q))
	if _, adaptive := s.executorFor(r).(engine.AdaptiveExecutor); adaptive {
		// Non-linear executors do not participate in the joint plan;
		// their marginal cost is their independent price.
		marginal = alone
	}
	return Quote{MarginalJPerTick: marginal, IndependentJPerTick: alone}, nil
}

// nextTreeLocked annotates q's tree as the joint planner sees it, with
// the relay-discounted per-stream costs planFleet applies, and snapshots
// the cache state the next tick plans against over every retained window
// and the tree's own. Quotes and admissions price on both. Caller holds
// the service lock.
func (s *Service) nextTreeLocked(q *engine.Query) (*query.Tree, sched.Warm) {
	tree := q.Tree()
	for k := range tree.Streams {
		if k < len(s.costScale) {
			tree.Streams[k].Cost *= s.costScale[k]
		}
	}
	need := tree.StreamMaxItems()
	for k := range need {
		need[k] = max(need[k], s.cache.Horizon(k))
	}
	return tree, sched.Warm(s.cache.NextSnapshotInto(need, nil))
}

// QuoteRegister on the sharded coordinator prices the registration on
// the worker Register would place it on (see placeLocked), where it is
// quoted against that worker's resident fleet — in-process or behind
// `paotrserve -join`.
func (sh *Sharded) QuoteRegister(id, text string, opts ...QueryOption) (Quote, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.assign[id]; dup {
		return Quote{}, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	p, err := sh.placeLocked(id, text, unplaced)
	if err != nil {
		return Quote{}, err
	}
	return sh.workers[p.to].QuoteRegister(id, text, opts...)
}
