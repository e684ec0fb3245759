package engine

import (
	"math"

	"paotr/internal/acquisition"
	"paotr/internal/query"
	"paotr/internal/sched"
	"paotr/internal/strategy"
)

// Strategy kinds reported in Result.Strategy and service metrics.
const (
	// StrategyLinear is a fixed leaf-evaluation order (a schedule).
	StrategyLinear = "linear"
	// StrategyAdaptive is a non-linear (decision-tree) strategy: the next
	// leaf depends on the truth values observed so far (paper, Section V).
	StrategyAdaptive = "adaptive"
)

// DefaultGapThreshold is the relative linear/non-linear expected-cost gap
// below which the adaptive executor keeps the linear schedule: running a
// decision tree only pays off when the model says it is measurably
// cheaper.
const DefaultGapThreshold = 0.02

// CIGateFactor scales the evidence gate of the adaptive executor: when
// the engine's estimator exposes confidence intervals, the modelled gap
// must additionally clear CIGateFactor times the widest interval over
// the query's trace-estimated leaves. A low-evidence query (wide CI)
// therefore stays on the linear schedule until the estimates firm up —
// the modelled non-linear advantage is not trustworthy before that.
const CIGateFactor = 0.5

// Executor names the execution strategy a runtime runs a compiled query
// with. It is sealed: the values LinearExecutor and AdaptiveExecutor are
// its only implementations (pass the values, not pointers to them), so a
// runtime dispatches on the concrete type. A linear query runs a fixed
// schedule (Plan and ExecutePlan, or a schedule from a joint fleet plan),
// an adaptive one a decision tree (PlanAdaptive and ExecuteAdaptivePlan).
// Planning and execution are separate calls so a multi-query scheduler
// can plan every due query first, coalesce their opening acquisitions,
// and only then execute (see service.Tick).
type Executor interface {
	// Name is the strategy kind the executor aims for ("linear",
	// "adaptive"); individual executions may still fall back (see
	// Result.Strategy).
	Name() string
	executor()
}

// LinearExecutor executes the planner's fixed schedule — the engine's
// historical behaviour and the zero value of the service's executor
// choice.
type LinearExecutor struct{}

// Name reports "linear".
func (LinearExecutor) Name() string { return StrategyLinear }

func (LinearExecutor) executor() {}

// AdaptiveExecutor executes an optimal non-linear (decision-tree)
// strategy, computed by the strategy package's DP and cached with the same
// fingerprint/drift machinery as linear plans (see PlanAdaptive). It falls
// back to the linear schedule when the tree has more than
// strategy.MaxLeaves leaves (the DP bound) or when the modelled
// linear/non-linear gap is below GapThreshold.
type AdaptiveExecutor struct {
	// GapThreshold is the minimum relative expected-cost gap
	// (linear-nonlinear)/linear required to prefer the decision tree.
	// 0 prefers the tree whenever it is strictly cheaper; negative always
	// uses the tree (when the DP bound allows one). Use
	// DefaultGapThreshold to avoid flip-flopping on noise.
	GapThreshold float64
}

// Name reports "adaptive".
func (AdaptiveExecutor) Name() string { return StrategyAdaptive }

func (AdaptiveExecutor) executor() {}

// AdaptivePlan is a ready-to-execute strategy for one query at one cache
// state: either a decision tree (Root non-nil) or the linear fallback.
// Like Plan, it carries the probability/warm fingerprint it was planned
// against for drift-based reuse.
type AdaptivePlan struct {
	// Tree is the probability-annotated tree the plan was built for.
	Tree *query.Tree
	// Root is the decision tree to walk; nil when execution falls back to
	// the linear schedule (DP bound exceeded or gap below threshold).
	Root *strategy.DecisionNode
	// Linear is the linear plan, kept both as the fallback and as the
	// baseline the gap is measured against.
	Linear *Plan
	// ExpectedCost is the expected cost of the chosen strategy.
	ExpectedCost float64
	// LinearCost and NonLinearCost are the modelled expected costs of the
	// two strategies at planning time; NonLinearCost is NaN when the DP
	// bound was exceeded. Gap() reports their relative difference.
	LinearCost    float64
	NonLinearCost float64
	// CIWidth is the widest estimator confidence interval over the
	// query's trace-estimated leaves at planning time (0 when every leaf
	// probability is annotated or the estimator has no intervals). It
	// widens the gap the decision tree must clear (see CIGateFactor).
	CIWidth float64
	// Reused reports whether the strategy came from the plan cache.
	Reused bool

	probs []float64  // fingerprint: per-leaf probabilities planned against
	costs []float64  // fingerprint: per-stream per-item costs planned against
	warm  sched.Warm // fingerprint: warm cache snapshot planned against
}

// Strategy returns the kind of strategy the plan will execute.
func (p *AdaptivePlan) Strategy() string {
	if p.Root != nil {
		return StrategyAdaptive
	}
	return StrategyLinear
}

// FirstAcquisition returns the stream index and window of the first leaf
// the plan evaluates: the decision tree's root, or the first scheduled
// leaf of the linear fallback. That acquisition happens unconditionally
// (the first leaf is never short-circuited), so a scheduler can pre-pull
// it without risk of waste. ok is false for an empty plan.
func (p *AdaptivePlan) FirstAcquisition() (stream, items int, ok bool) {
	j := -1
	if p.Root != nil {
		j = p.Root.Leaf
	} else if len(p.Linear.Schedule) > 0 {
		j = p.Linear.Schedule[0]
	}
	if j < 0 {
		return 0, 0, false
	}
	l := p.Tree.Leaves[j]
	return int(l.Stream), l.Items, true
}

// Gap returns the modelled relative cost gap (linear-nonlinear)/linear at
// planning time, or 0 when the DP was skipped or the linear cost is zero.
func (p *AdaptivePlan) Gap() float64 {
	if math.IsNaN(p.NonLinearCost) || p.LinearCost <= 0 {
		return 0
	}
	return (p.LinearCost - p.NonLinearCost) / p.LinearCost
}

// PlanAdaptive builds (or reuses) an adaptive plan for the query against
// the cache's current state. The linear plan is always built first (it is
// the fallback, the gap baseline, and it shares the plan-cache machinery);
// the decision-tree DP then runs unless the tree exceeds
// strategy.MaxLeaves. Reuse follows the same fingerprint rules as Plan:
// while no leaf probability drifts beyond the engine's replan threshold
// and the warm state is unchanged, the cached decision tree is kept and
// only re-priced.
func (q *Query) PlanAdaptive(cache *acquisition.Cache, gapThreshold float64) (*AdaptivePlan, error) {
	lin, err := q.Plan(cache)
	if err != nil {
		return nil, err
	}
	t := lin.Tree
	if t.NumLeaves() > strategy.MaxLeaves {
		return &AdaptivePlan{
			Tree: t, Linear: lin,
			ExpectedCost: lin.ExpectedCost, LinearCost: lin.ExpectedCost,
			NonLinearCost: math.NaN(), Reused: lin.Reused,
		}, nil
	}
	warm := lin.warm
	// Evidence gate: a decision tree is only preferred when the modelled
	// gap also clears a share of the widest confidence interval over the
	// trace-estimated leaf probabilities, so low-evidence queries stay
	// linear. A negative threshold forces the tree and skips the gate.
	ciw := q.ciWidth()
	effGap := gapThreshold
	if gapThreshold >= 0 {
		effGap += CIGateFactor * ciw
	}

	q.mu.Lock()
	prev := q.lastAdaptive
	q.mu.Unlock()
	if prev != nil && q.engine.replanEps >= 0 && prev.warm.Equal(warm) {
		if drift := t.Drift(prev.probs, prev.costs); drift <= q.engine.replanEps {
			// Keep the cached choice (tree or fallback) and its
			// fingerprint; re-price the tree only when probabilities or
			// learned costs moved.
			ap := &AdaptivePlan{
				Tree: t, Root: prev.Root, Linear: lin,
				LinearCost: lin.ExpectedCost, NonLinearCost: prev.NonLinearCost,
				CIWidth: ciw, Reused: true, probs: prev.probs, costs: prev.costs, warm: prev.warm,
			}
			if ap.Root != nil && drift > 0 {
				ap.NonLinearCost = strategy.CostOfDecisionTreeWarm(t, ap.Root, warm)
				// The re-priced tree must still clear the gap; drop to the
				// linear schedule until the next full re-plan otherwise.
				// (The symmetric case — a cached fallback whose tree became
				// worthwhile — is only reconsidered on a re-plan, since
				// detecting it would cost a full DP run per tick.)
				if !preferTree(effGap, lin.ExpectedCost, ap.NonLinearCost) {
					ap.Root = nil
				}
			}
			if ap.Root != nil {
				ap.ExpectedCost = ap.NonLinearCost
			} else {
				ap.ExpectedCost = lin.ExpectedCost
			}
			q.storeAdaptivePlan(ap)
			return ap, nil
		}
	}

	root, nl := strategy.OptimalStrategyWarm(t, warm)
	ap := &AdaptivePlan{
		Tree: t, Linear: lin,
		LinearCost: lin.ExpectedCost, NonLinearCost: nl,
		CIWidth: ciw, warm: warm,
	}
	ap.probs, ap.costs = t.Fingerprint()
	if preferTree(effGap, lin.ExpectedCost, nl) {
		ap.Root = root
		ap.ExpectedCost = nl
	} else {
		ap.ExpectedCost = lin.ExpectedCost
	}
	q.storeAdaptivePlan(ap)
	return ap, nil
}

// ciWidth returns the widest estimator confidence interval over the
// query's trace-estimated leaves — 0 when every leaf is annotated or the
// estimator exposes no intervals (e.g. the cumulative store).
func (q *Query) ciWidth() float64 {
	ci, ok := q.engine.est.(interface{ CIWidth(pred string) float64 })
	if !ok {
		return 0
	}
	w := 0.0
	for j := range q.Preds {
		if !math.IsNaN(q.Preds[j].Prob) {
			continue
		}
		if cw := ci.CIWidth(q.predKeys[j]); cw > w {
			w = cw
		}
	}
	return w
}

// preferTree decides whether the decision tree's expected cost clears the
// gap threshold over the linear schedule (negative threshold: always).
func preferTree(gapThreshold, linearCost, nonLinearCost float64) bool {
	return gapThreshold < 0 || linearCost-nonLinearCost > gapThreshold*linearCost+1e-12
}

func (q *Query) storeAdaptivePlan(p *AdaptivePlan) {
	q.mu.Lock()
	q.lastAdaptive = p
	q.mu.Unlock()
}

// ExecuteAdaptivePlan runs a previously built adaptive plan against the
// cache's current time. When the plan fell back to a linear schedule, this
// is exactly ExecutePlan; otherwise the decision tree is walked: each
// evaluated leaf's truth value selects the next decision node, so the
// evaluation order adapts to what has been observed. Like ExecutePlan, the
// plan must have been built for the same cache state.
func (q *Query) ExecuteAdaptivePlan(p *AdaptivePlan, cache *acquisition.Cache) (Result, error) {
	if p.Root == nil {
		return q.ExecutePlan(p.Linear, cache)
	}
	t := p.Tree
	res := Result{Tree: t, ExpectedCost: p.ExpectedCost, PlanReused: p.Reused, Strategy: StrategyAdaptive}

	st := newOrState(t)
	for n := p.Root; n != nil && n.Leaf >= 0; {
		truth, cost, err := q.evalLeaf(t, n.Leaf, cache)
		res.Cost += cost
		if err != nil {
			return res, err
		}
		res.Evaluated++
		if done, value := st.record(t.Leaves[n.Leaf].And, truth); done {
			res.Value = value
			return res, nil
		}
		if truth {
			n = n.IfTrue
		} else {
			n = n.IfFalse
		}
	}
	// An optimal strategy terminates exactly when the root is resolved, so
	// the loop returns from inside; reaching a terminal node without
	// resolution means a malformed tree — report the state as it stands.
	res.Value = st.value()
	return res, nil
}
