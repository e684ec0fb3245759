// Marginal-cost quoting on the serving runtimes: QuoteRegister prices a
// registration without performing it, the read-only front half of
// admission control. The plain service quotes against its own resident
// fleet via fleet.QuoteJoint (a strict dry run on the joint planner);
// the sharded coordinator routes the quote to the shard the query would
// be placed on, so the price reflects the sharing actually available
// there.
package service

import (
	"fmt"

	"paotr/internal/engine"
	"paotr/internal/fleet"
	"paotr/internal/query"
	"paotr/internal/sched"
)

// Quote is a registration's price tag: what admitting it would add to
// the fleet's planned acquisition energy.
type Quote struct {
	// MarginalJPerTick is the quoted marginal joint cost: the expected
	// J/tick the patched joint plan including the newcomer costs over the
	// resident plan. Zero for a twin of a resident shape.
	MarginalJPerTick float64 `json:"marginal_j_per_tick"`
	// IndependentJPerTick is what the same query would cost planned
	// alone — the no-sharing price. The gap to MarginalJPerTick is the
	// overlap discount the resident fleet grants the newcomer.
	IndependentJPerTick float64 `json:"independent_j_per_tick"`
	// SharedShape reports an exact twin: the query interns into an
	// already-resident shape class and executes by fan-out, adding no
	// planned acquisition at all.
	SharedShape bool `json:"shared_shape"`
}

// QuoteRegister prices registering (id, text, opts) against the current
// fleet without registering it and without mutating any planner or
// cache state. The id must be free; the text must compile. The quote
// equals the joint-plan delta the planner realizes if the query is
// admitted (see fleet.QuoteJoint), so admission control can spend
// budgets in the same currency the planner accounts in.
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
		return Quote{SharedShape: true, IndependentJPerTick: s.independentPriceLocked(c.q.Tree())}, nil
	}

	// The independent price is taken on a fresh copy: independentPrice-
	// Locked and the joint dry run below each apply the relay cost
	// scaling once, and it must not compound on a shared tree.
	tree := q.Tree()
	quote := Quote{IndependentJPerTick: s.independentPriceLocked(q.Tree())}
	if _, adaptive := s.executorFor(r).(engine.AdaptiveExecutor); adaptive {
		// Non-linear executors do not participate in the joint plan;
		// their marginal cost is their independent price.
		quote.MarginalJPerTick = quote.IndependentJPerTick
		return quote, nil
	}

	// Assemble the resident linear fleet the joint planner would see —
	// one prob-annotated tree per shape class, in classList (due-set)
	// order — plus the newcomer, and dry-run the patch.
	keys := make([]string, 0, len(s.classList))
	trees := make([]*query.Tree, 0, len(s.classList))
	weights := make([]int, 0, len(s.classList))
	need := make([]int, s.reg.Len())
	for _, c := range s.classList {
		if _, adaptive := s.executorFor(c.members[0]).(engine.AdaptiveExecutor); adaptive {
			continue
		}
		t := c.q.Tree()
		keys = append(keys, c.planKey)
		trees = append(trees, t)
		weights = append(weights, len(c.members))
		growNeed(need, t)
	}
	growNeed(need, tree)
	s.scaleTreeCosts(trees)
	s.scaleTreeCosts([]*query.Tree{tree})
	warm := sched.Warm(s.cache.SnapshotInto(need, nil))
	quote.MarginalJPerTick = s.planner.QuoteJoint(keys, trees, weights, warm, s.planKeyLocked(q.ShapeHash()), tree)
	return quote, nil
}

// independentPriceLocked prices one tree planned alone under the
// current cache warm state. Caller holds the service lock.
func (s *Service) independentPriceLocked(tree *query.Tree) float64 {
	need := make([]int, s.reg.Len())
	growNeed(need, tree)
	s.scaleTreeCosts([]*query.Tree{tree})
	warm := sched.Warm(s.cache.SnapshotInto(need, nil))
	p := fleet.PlanJoint([]*query.Tree{tree}, warm)
	return p.Expected
}

// growNeed widens the per-stream item horizon to cover the tree.
func growNeed(need []int, t *query.Tree) {
	for _, lf := range t.Leaves {
		if k := int(lf.Stream); k < len(need) && lf.Items > need[k] {
			need[k] = lf.Items
		}
	}
}

// scaleTreeCosts applies the coordinator's relay-discounted per-stream
// cost multipliers to freshly allocated trees, mirroring what planFleet
// does on the tick path so quotes price in the same currency.
func (s *Service) scaleTreeCosts(trees []*query.Tree) {
	if s.costScale == nil {
		return
	}
	for _, t := range trees {
		for k := range t.Streams {
			if k < len(s.costScale) {
				t.Streams[k].Cost *= s.costScale[k]
			}
		}
	}
}

// QuoteRegister on the sharded coordinator prices the registration on
// the shard Register would place it on (see placeLocked), where the
// worker quotes against its resident fleet. Remote workers (paotrserve
// -worker processes) fall back to the independent price of the neutrally
// compiled tree — the upper bound of the marginal cost.
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
	type quoter interface {
		QuoteRegister(id, text string, opts ...QueryOption) (Quote, error)
	}
	if w, ok := sh.workers[p.to].(quoter); ok {
		return w.QuoteRegister(id, text, opts...)
	}
	// Remote worker: quote the no-sharing upper bound (prior
	// probabilities, static costs, cold cache).
	tree := p.q.Tree()
	cold := make(sched.Warm, len(tree.Streams))
	for k, d := range tree.StreamMaxItems() {
		cold[k] = make([]bool, d)
	}
	price := fleet.PlanJoint([]*query.Tree{tree}, cold).Expected
	return Quote{MarginalJPerTick: price, IndependentJPerTick: price}, nil
}
