// Package engine is the end-to-end query processor the paper's motivation
// describes: it compiles textual queries into shared DNF trees, estimates
// leaf probabilities from historical traces, plans a cost-minimizing leaf
// evaluation order with the scheduling algorithms of this library, and
// executes the plan in the pull model against live (simulated) sensor
// streams, paying for data acquisition and reusing cached items across
// leaves.
//
// Every execution feeds outcomes back into the estimator and re-plans,
// which is the adaptive behaviour of Lim, Misra and Mo [4]. Each compiled
// query caches its own last plan and reuses it while its fingerprint
// holds; the engine keeps no registry of compiled queries, so a
// multi-query owner maps detector trips to plans itself (the service
// does so per shape class) and drops a cached plan with
// Query.InvalidatePlan.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"paotr/internal/acquisition"
	"paotr/internal/andtree"
	"paotr/internal/dnf"
	"paotr/internal/parser"
	"paotr/internal/query"
	"paotr/internal/sched"
	"paotr/internal/stream"
	"paotr/internal/trace"
)

// Planner builds a schedule for a DNF tree with a cold cache.
type Planner func(*query.Tree) sched.Schedule

// DefaultPlanner uses the paper's best heuristic (AND-ordered, increasing
// C/p, dynamic) for DNF trees and the optimal Algorithm 1 for AND-trees.
func DefaultPlanner(t *query.Tree) sched.Schedule {
	if t.IsAndTree() {
		return andtree.Greedy(t)
	}
	return dnf.AndOrderedIncCOverPDynamic(t, nil)
}

// DefaultWarmPlanner is the warm-start counterpart of DefaultPlanner: the
// warm Algorithm 1 for AND-trees and the warm dynamic C/p heuristic for
// DNF trees. It is what the engine uses in continuous operation, where
// most windows are partially cached from the previous step.
func DefaultWarmPlanner(t *query.Tree, w sched.Warm) sched.Schedule {
	if t.IsAndTree() {
		return andtree.GreedyWarm(t, w)
	}
	return dnf.AndOrderedIncCOverPDynamicWarm(t, w)
}

// Engine processes queries over a stream registry. An Engine and its
// compiled queries are safe for concurrent use: many queries may plan and
// execute simultaneously against a shared acquisition cache.
type Engine struct {
	reg    *stream.Registry
	traces *trace.Store
	plan   Planner // set by WithPlanner; overrides DefaultWarmPlanner
	// est is the probability estimator planners consult and realized
	// outcomes are recorded into (default: the cumulative trace store
	// itself; see WithEstimator).
	est trace.Estimator
	// costs, when set, overrides static per-item stream costs at plan
	// time with learned ones (see WithCostSource).
	costs CostSource
	// replanEps is the plan-cache drift threshold: a cached schedule is
	// reused while every leaf probability has moved by at most replanEps
	// since it was planned and the warm cache state is unchanged.
	// 0 (the default) reuses only on an exact fingerprint match; negative
	// disables plan reuse entirely.
	replanEps float64
}

// CostSource supplies learned per-item acquisition costs by registry
// stream index; ok is false while no observation backs the stream (the
// static registry cost then applies). adapt.Windowed implements it.
type CostSource interface {
	CostPerItem(k int) (float64, bool)
}

// Option configures an Engine.
type Option func(*Engine)

// WithPlanner overrides the schedule planner with a cache-oblivious one;
// the engine then also reports cold-cache expected costs.
func WithPlanner(p Planner) Option { return func(e *Engine) { e.plan = p } }

// WithEstimator installs a probability estimator in place of the
// cumulative trace store: plan-time probabilities come from it and
// realized outcomes are recorded into it alone, so the store (see
// Traces) stays empty.
func WithEstimator(est trace.Estimator) Option { return func(e *Engine) { e.est = est } }

// WithCostSource makes plan-time stream costs come from learned per-item
// observations instead of the static registry cost models (streams with
// no observations keep the static cost).
func WithCostSource(cs CostSource) Option { return func(e *Engine) { e.costs = cs } }

// WithReplanThreshold sets the plan-cache drift threshold. A query's last
// schedule is reused — skipping the planner — when the warm cache state is
// identical to the one it was planned against and no leaf probability
// estimate has drifted by more than eps since. eps = 0 (the default)
// reuses only when the fingerprint matches exactly; a negative eps
// disables reuse, re-planning on every execution (the seed behaviour).
func WithReplanThreshold(eps float64) Option { return func(e *Engine) { e.replanEps = eps } }

// New creates an engine over the registry.
func New(reg *stream.Registry, opts ...Option) *Engine {
	e := &Engine{reg: reg, traces: trace.NewStore()}
	for _, o := range opts {
		o(e)
	}
	if e.est == nil {
		e.est = e.traces
	}
	return e
}

// Traces exposes the engine's cumulative trace store. It records
// outcomes only while no other estimator is installed (see
// WithEstimator).
func (e *Engine) Traces() *trace.Store { return e.traces }

// Estimator exposes the probability estimator planners consult.
func (e *Engine) Estimator() trace.Estimator { return e.est }

// record feeds one realized predicate outcome into the estimator.
func (e *Engine) record(pred string, truth bool) { e.est.Record(pred, truth) }

// ReplanThreshold returns the plan-cache drift threshold (see
// WithReplanThreshold), so schedulers layering their own plan caches on
// top — e.g. a fleet-level joint planner — can reuse the same policy.
func (e *Engine) ReplanThreshold() float64 { return e.replanEps }

// Query is a compiled query: the parsed predicates bound to registry
// streams, ready to be planned and executed. A Query may be executed
// concurrently with other queries of the same engine; the plan cache is
// per query and lock-protected.
type Query struct {
	// Text is the original query string.
	Text string
	// Expr is the parsed expression.
	Expr parser.Expr
	// Preds holds, per tree leaf, the bound predicate.
	Preds []parser.Pred
	// predKeys caches Preds[j].P.String(), the trace-store key, which is
	// needed on every leaf evaluation (rendering it per evaluation
	// dominated execution profiles).
	predKeys []string
	// tree is rebuilt before each execution (probabilities may drift);
	// structure (streams, windows, AND grouping) is fixed at compile time.
	skeleton *query.Tree
	// shape is the canonical shape of the skeleton — identical for every
	// query that is equal up to AND/OR commutativity — and shapeHash its
	// compact 64-bit id (see query.CanonicalShape). The shape splits query
	// *identity* (who registered it, where results go) from query
	// *structure* (what is planned and evaluated): a fleet runtime interns
	// queries into shape equivalence classes by this key.
	shape     string
	shapeHash uint64
	engine    *Engine

	mu           sync.Mutex
	last         *Plan         // plan cache: most recent plan, with its fingerprint
	lastAdaptive *AdaptivePlan // adaptive-plan cache (see PlanAdaptive)
}

// ErrUnknownStream is returned when a query references an unregistered
// stream.
var ErrUnknownStream = errors.New("engine: unknown stream")

// Compile parses and binds a query.
func (e *Engine) Compile(text string) (*Query, error) {
	expr, err := parser.Parse(text)
	if err != nil {
		return nil, err
	}
	node, err := exprToNode(expr, e.reg)
	if err != nil {
		return nil, err
	}
	streams := make([]query.Stream, e.reg.Len())
	for k := 0; k < e.reg.Len(); k++ {
		st := e.reg.At(k)
		streams[k] = query.Stream{Name: st.Source.Name(), Cost: st.Cost.PerItem()}
	}
	tree, err := node.ToDNF(streams)
	if err != nil {
		return nil, err
	}
	q := &Query{Text: text, Expr: expr, skeleton: tree, engine: e}
	// Recover the per-leaf predicates from the labels stamped by
	// exprToNode (ToDNF may duplicate predicates across AND nodes).
	preds := map[string]parser.Pred{}
	for _, p := range parser.Predicates(expr) {
		preds[p.P.String()] = p
	}
	for _, l := range tree.Leaves {
		p, ok := preds[l.Label]
		if !ok {
			return nil, fmt.Errorf("engine: internal: leaf %q lost its predicate", l.Label)
		}
		q.Preds = append(q.Preds, p)
		q.predKeys = append(q.predKeys, p.P.String())
	}
	// Canonicalize the shape against the *annotation* vector, not the
	// skeleton's placeholder probabilities: an annotated leaf is described
	// by its fixed probability, an estimator-driven one (NaN annotation)
	// by a marker — its runtime estimate is keyed by the predicate label,
	// which is already part of the leaf descriptor, so two estimator-driven
	// leaves of equal shape always see equal estimates.
	annot := make([]float64, len(q.Preds))
	for j, p := range q.Preds {
		annot[j] = p.Prob
	}
	q.shape = tree.CanonicalShape(annot)
	q.shapeHash = query.ShapeHash(q.shape)
	return q, nil
}

// ShapeKey returns the query's canonical shape string: equal for every
// query whose DNF tree is identical up to AND/OR commutativity (same
// streams, windows, probabilities and predicate labels). Queries with
// equal shape keys plan identically and yield identical verdicts at any
// tick, so a fleet runtime may evaluate one representative and share the
// result (as the service's shape classes do).
func (q *Query) ShapeKey() string { return q.shape }

// ShapeHash returns the compact 64-bit id of the shape key (for display
// and cache keying; class membership compares ShapeKey itself).
func (q *Query) ShapeHash() uint64 { return q.shapeHash }

// exprToNode converts a parsed expression to a query.Node, resolving
// stream names against the registry. Probabilities are filled in at plan
// time, not here.
func exprToNode(e parser.Expr, reg *stream.Registry) (*query.Node, error) {
	switch v := e.(type) {
	case parser.Pred:
		k, ok := reg.IndexOf(v.P.Stream)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownStream, v.P.Stream)
		}
		return query.NewLeafNode(query.Leaf{
			Stream: query.StreamID(k),
			Items:  v.P.Items(),
			Prob:   0.5, // placeholder; bound per execution
			Label:  v.P.String(),
		}), nil
	case parser.And:
		children, err := childNodes(v.Terms, reg)
		if err != nil {
			return nil, err
		}
		return query.NewAndNode(children...), nil
	case parser.Or:
		children, err := childNodes(v.Terms, reg)
		if err != nil {
			return nil, err
		}
		return query.NewOrNode(children...), nil
	}
	return nil, fmt.Errorf("engine: unknown expression %T", e)
}

func childNodes(terms []parser.Expr, reg *stream.Registry) ([]*query.Node, error) {
	out := make([]*query.Node, len(terms))
	for i, t := range terms {
		n, err := exprToNode(t, reg)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// Tree returns the query's DNF tree with current probability estimates —
// the annotated probability when the query provided one, otherwise the
// estimator's — and, when a cost source is installed, per-item stream
// costs re-priced from learned acquisition observations.
func (q *Query) Tree() *query.Tree { return q.TreeInto(nil) }

// TreeInto is Tree with the clone amortized: dst — a tree previously
// returned by Tree or TreeInto for this same query — is re-annotated in
// place with the current probability estimates and learned costs and
// returned. A nil dst clones the skeleton fresh. Callers reusing dst
// across executions must be done with the previous tree before the next
// call (the service's tick loop is; its phases are serialized).
func (q *Query) TreeInto(dst *query.Tree) *query.Tree {
	if dst == nil {
		dst = q.skeleton.Clone()
	}
	for j := range dst.Leaves {
		p := q.Preds[j]
		if !math.IsNaN(p.Prob) {
			dst.Leaves[j].Prob = p.Prob
			continue
		}
		est, _ := q.engine.est.Estimate(q.predKeys[j])
		dst.Leaves[j].Prob = est
	}
	if cs := q.engine.costs; cs != nil {
		for k := range dst.Streams {
			if c, ok := cs.CostPerItem(k); ok {
				dst.Streams[k].Cost = c
			}
		}
	}
	return dst
}

// PredKeys returns the trace-store keys of the query's leaf predicates,
// in leaf order. These are the keys the engine records outcomes under —
// what a runtime needs to migrate a query's learned estimator state when
// moving it between engines (see adapt.Windowed.ExportPredicates). The
// result is a copy.
func (q *Query) PredKeys() []string { return append([]string(nil), q.predKeys...) }

// Result reports one query execution.
type Result struct {
	// Value is the query's truth value.
	Value bool
	// Cost is the acquisition cost actually paid during this execution.
	Cost float64
	// ExpectedCost is the planner's expected cost for the schedule under
	// the probability estimates used, accounting for items already cached
	// at planning time (unless a cold Planner override is installed).
	ExpectedCost float64
	// Evaluated counts predicates actually computed.
	Evaluated int
	// Schedule is the leaf order used.
	Schedule sched.Schedule
	// Tree is the probability-annotated tree that was planned.
	Tree *query.Tree
	// PlanReused reports whether the schedule came from the plan cache
	// instead of a fresh planner run (see WithReplanThreshold).
	PlanReused bool
	// Strategy is the execution strategy kind actually used:
	// StrategyLinear (a fixed schedule) or StrategyAdaptive (a decision
	// tree; see AdaptiveExecutor).
	Strategy string
}

// Plan is a ready-to-execute schedule for one query at one cache state:
// the probability-annotated tree, the leaf order, and its expected cost.
// The probability vector and warm snapshot it was planned against are kept
// as the plan-cache fingerprint.
type Plan struct {
	// Tree is the probability-annotated tree the plan was built for.
	Tree *query.Tree
	// Schedule is the planned leaf evaluation order.
	Schedule sched.Schedule
	// ExpectedCost is the expected acquisition cost of the schedule under
	// Tree's probabilities and the warm state at planning time.
	ExpectedCost float64
	// Reused reports whether the schedule was taken from the plan cache.
	Reused bool

	probs []float64  // fingerprint: per-leaf probabilities planned against
	costs []float64  // fingerprint: per-stream per-item costs planned against
	warm  sched.Warm // fingerprint: warm cache snapshot planned against
}

// Plan builds (or reuses) a schedule for the query against the cache's
// current state. When the fingerprint — the per-leaf probability
// estimates, the per-item costs of the streams the query reads (which
// drift when a cost source learns them; see WithCostSource) and the
// warm-state snapshot — has not drifted beyond the engine's replan
// threshold since the last plan (query.Tree.Drift, the test the fleet
// planner applies per class), the cached schedule is reused and only its
// expected cost is recomputed; otherwise the planner runs anew.
func (q *Query) Plan(cache *acquisition.Cache) (*Plan, error) {
	t := q.Tree()
	var warm sched.Warm
	cold := q.engine.plan != nil
	if !cold {
		warm = sched.Warm(cache.Snapshot(t.StreamMaxItems()))
	}

	q.mu.Lock()
	prev := q.last
	q.mu.Unlock()
	if prev != nil && q.engine.replanEps >= 0 && prev.warm.Equal(warm) {
		if drift := t.Drift(prev.probs, prev.costs); drift <= q.engine.replanEps {
			// Keep the fingerprint of the plan that produced the schedule:
			// drift is always measured against the probabilities the planner
			// actually saw, so slow cumulative drift still forces a re-plan
			// once it exceeds the threshold.
			p := &Plan{Tree: t, Schedule: prev.Schedule, Reused: true, probs: prev.probs, costs: prev.costs, warm: prev.warm}
			switch {
			case drift == 0:
				// Exact fingerprint match: same probabilities and same warm
				// state give the same expected cost.
				p.ExpectedCost = prev.ExpectedCost
			case cold:
				p.ExpectedCost = sched.Cost(t, p.Schedule)
			default:
				p.ExpectedCost = sched.CostWarm(t, p.Schedule, warm)
			}
			q.storePlan(p)
			return p, nil
		}
	}

	var s sched.Schedule
	var expected float64
	if cold {
		s = q.engine.plan(t)
		expected = sched.Cost(t, s)
	} else {
		s = DefaultWarmPlanner(t, warm)
		expected = sched.CostWarm(t, s, warm)
	}
	if err := s.Validate(t); err != nil {
		return nil, fmt.Errorf("engine: planner returned invalid schedule: %w", err)
	}
	p := &Plan{Tree: t, Schedule: s, ExpectedCost: expected, warm: warm}
	p.probs, p.costs = t.Fingerprint()
	q.storePlan(p)
	return p, nil
}

func (q *Query) storePlan(p *Plan) {
	q.mu.Lock()
	q.last = p
	q.mu.Unlock()
}

// InvalidatePlan drops the cached plans (linear and adaptive), forcing
// the next Plan or PlanAdaptive call to run the planner. It reports
// whether anything was actually dropped.
func (q *Query) InvalidatePlan() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	had := q.last != nil || q.lastAdaptive != nil
	q.last = nil
	q.lastAdaptive = nil
	return had
}

// evalLeaf acquires leaf j's stream window from the cache, evaluates its
// predicate and records the outcome in the estimator. It returns the
// truth value and the acquisition cost paid (also on error, so callers
// can account for partial acquisitions).
func (q *Query) evalLeaf(t *query.Tree, j int, cache *acquisition.Cache) (bool, float64, error) {
	l := t.Leaves[j]
	vals, cost, err := cache.Acquire(int(l.Stream), l.Items)
	if err != nil {
		return false, cost, err
	}
	truth, err := q.Preds[j].P.Eval(vals)
	if err != nil {
		return false, cost, err
	}
	q.engine.record(q.predKeys[j], truth)
	return truth, cost, nil
}

// orState tracks the resolution of a DNF tree while its leaves are
// evaluated in any order: an AND node with a FALSE leaf is dead, an AND
// node whose leaves were all TRUE resolves the OR root TRUE, and the root
// resolves FALSE once every AND node is dead. Both executors (fixed
// schedules and decision-tree walks) share this bookkeeping, so their
// verdict semantics cannot diverge.
type orState struct {
	andFalse  []bool
	andLeft   []int // TRUE evaluations still missing per AND node
	falseAnds int
}

func newOrState(t *query.Tree) *orState {
	s := &orState{andFalse: make([]bool, t.NumAnds()), andLeft: make([]int, t.NumAnds())}
	for i, and := range t.AndLeaves() {
		s.andLeft[i] = len(and)
	}
	return s
}

// dead reports whether the AND node is already known FALSE (its leaves
// need not be evaluated).
func (s *orState) dead(and int) bool { return s.andFalse[and] }

// record applies one leaf outcome and reports whether the root is now
// resolved, and to which value.
func (s *orState) record(and int, truth bool) (done, value bool) {
	if truth {
		s.andLeft[and]--
		if s.andLeft[and] == 0 && !s.andFalse[and] {
			return true, true // AND fully TRUE: OR resolved TRUE
		}
	} else if !s.andFalse[and] {
		s.andFalse[and] = true
		s.falseAnds++
		if s.falseAnds == len(s.andFalse) {
			return true, false // every AND dead: OR resolved FALSE
		}
	}
	return false, false
}

// value reports the root's value from the state as it stands (used only
// defensively, when an executor runs out of leaves without resolution).
func (s *orState) value() bool {
	if s.falseAnds == len(s.andFalse) {
		return false
	}
	for a, left := range s.andLeft {
		if left == 0 && !s.andFalse[a] {
			return true
		}
	}
	return false
}

// ExecutePlan runs a previously built plan against the cache's current
// time, paying for acquisitions and recording predicate outcomes in the
// estimator. The plan must have been built for the same cache state
// (same Now and contents); Execute composes Plan and ExecutePlan.
func (q *Query) ExecutePlan(p *Plan, cache *acquisition.Cache) (Result, error) {
	t := p.Tree
	res := Result{Schedule: p.Schedule, Tree: t, ExpectedCost: p.ExpectedCost, PlanReused: p.Reused, Strategy: StrategyLinear}

	st := newOrState(t)
	for _, j := range p.Schedule {
		if st.dead(t.Leaves[j].And) {
			continue
		}
		truth, cost, err := q.evalLeaf(t, j, cache)
		res.Cost += cost
		if err != nil {
			return res, err
		}
		res.Evaluated++
		if done, value := st.record(t.Leaves[j].And, truth); done {
			res.Value = value
			return res, nil
		}
	}
	return res, nil
}

// Execute plans (or reuses a cached plan) and runs the query once against
// the cache's current time, recording outcomes in the estimator. The
// caller advances time on the cache between executions (one execution per
// arrival of new data, in the continuous-processing model of [4]).
func (q *Query) Execute(cache *acquisition.Cache) (Result, error) {
	p, err := q.Plan(cache)
	if err != nil {
		return Result{}, err
	}
	return q.ExecutePlan(p, cache)
}

// NewCache builds an acquisition cache sized for the query: each stream's
// retention horizon is the maximum window the query uses on it.
func (q *Query) NewCache() (*acquisition.Cache, error) {
	return acquisition.NewCache(q.engine.reg, q.skeleton.StreamMaxItems())
}

// Windows returns, per registry stream, the maximum window the query uses
// on it — the retention claim a shared cache must honour while the query
// is registered (see acquisition.Cache.Retain).
func (q *Query) Windows() []int { return q.skeleton.StreamMaxItems() }

// Run executes the query over a span of time steps: at every step the
// cache advances one step (one new item per stream) and the query runs
// once. It returns the per-step results.
func (q *Query) Run(cache *acquisition.Cache, steps int) ([]Result, error) {
	out := make([]Result, 0, steps)
	for i := 0; i < steps; i++ {
		cache.Advance(1)
		r, err := q.Execute(cache)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
