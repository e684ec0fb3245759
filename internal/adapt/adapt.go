// Package adapt is the online adaptive-estimation subsystem: it tracks
// non-stationary predicate probabilities and stream acquisition costs and
// actively invalidates plans when a regime shift is detected.
//
// The paper assumes leaf probabilities are "inferred based on historical
// traces obtained for previous query executions" (Section I). The
// cumulative counter in internal/trace implements that literally, but it
// never forgets: after a few thousand evaluations a real regime shift
// takes thousands more ticks to move the estimate, so drift-threshold
// replanning almost never fires and stale schedules keep executing. This
// package replaces the estimate with three coupled mechanisms:
//
//   - a per-predicate sliding-window Beta estimator (the planning
//     estimate), with EWMA fast/slow tracks and a confidence interval
//     whose width comes from the window's effective sample size;
//   - per-stream acquisition-cost EWMAs, so the planner's C is learned
//     from observed pull costs instead of being a static constant;
//   - two-sided Page-Hinkley change detectors per predicate and per
//     stream, which emit targeted invalidation events on a sustained
//     shift — a subscriber (the service, per shape class) evicts exactly
//     the affected plans instead of waiting for passive drift checks.
//
// Windowed implements trace.Estimator, so it plugs into the engine in
// place of the cumulative store. All methods are safe for concurrent use;
// events are delivered synchronously but outside the estimator's lock, so
// subscribers may call back into it.
package adapt

import (
	"math"
	"sort"
	"sync"

	"paotr/internal/trace"
)

// Event kinds delivered to subscribers.
const (
	// KindPredicate reports a detected shift in a predicate's success
	// probability.
	KindPredicate = "predicate"
	// KindStreamCost reports a detected shift in a stream's per-item
	// acquisition cost.
	KindStreamCost = "stream-cost"
)

// Event is one detector trip: a sustained regime shift on a predicate's
// success probability or a stream's per-item cost.
type Event struct {
	// Kind is KindPredicate or KindStreamCost.
	Kind string
	// Pred is the predicate key (KindPredicate only).
	Pred string
	// Stream is the registry stream index (KindStreamCost only; -1
	// otherwise).
	Stream int
	// Before is the detector's running mean when it tripped; After is the
	// fast-track estimate of the new regime at that moment.
	Before, After float64
	// Obs is the number of observations recorded on the key when the
	// detector tripped.
	Obs int64
}

// Config tunes the estimator. The zero value of every field selects the
// documented default, so Config{} is a valid configuration.
type Config struct {
	// Window is the sliding-window size per predicate (default 64).
	Window int
	// PriorProb and PriorWeight smooth the windowed estimate exactly like
	// trace.Store smooths the cumulative one (defaults 0.5 and 2).
	PriorProb   float64
	PriorWeight float64
	// FastAlpha and SlowAlpha are the EWMA step sizes of the fast and
	// slow tracks (defaults 0.25 and 0.03).
	FastAlpha float64
	SlowAlpha float64
	// Z is the normal quantile of the confidence interval (default 1.96,
	// a 95% interval).
	Z float64
	// PHDelta and PHLambda parameterize the per-predicate Page-Hinkley
	// detector: shifts below PHDelta are tolerated, and the cumulative
	// deviation must exceed PHLambda to trip (defaults 0.1 and 12 — on
	// 0/1 outcomes a 0.2→0.8 shift trips within a few dozen evaluations
	// while a stationary stream stays quiet for tens of thousands).
	PHDelta  float64
	PHLambda float64
	// PHMinObs is the detector warm-up: no trips before this many
	// observations (default 30).
	PHMinObs int
	// CostAlpha is the per-stream cost EWMA step size (default 0.2).
	CostAlpha float64
	// CostPHDelta and CostPHLambda parameterize the per-stream cost
	// detector, in log-ratio units — observations are ln(cost/mean), so
	// k-fold price rises and drops weigh the same — (defaults 0.15
	// and 3: stationary prices deviate by exactly zero, while a
	// sustained 3x shift trips within a handful of pulls).
	CostPHDelta  float64
	CostPHLambda float64
	// CostPHMinObs is the cost detector warm-up (default 10).
	CostPHMinObs int
	// MaxPredicates bounds the number of predicates tracked (default
	// 4096; negative = unbounded). Past the bound, least-recently-
	// recorded predicates are evicted — the estimator must not grow
	// without bound under churning tenant registration.
	MaxPredicates int
}

func (c Config) norm() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.PriorProb <= 0 {
		c.PriorProb = 0.5
	}
	if c.PriorWeight <= 0 {
		c.PriorWeight = 2
	}
	if c.FastAlpha <= 0 {
		c.FastAlpha = 0.25
	}
	if c.SlowAlpha <= 0 {
		c.SlowAlpha = 0.03
	}
	if c.Z <= 0 {
		c.Z = 1.96
	}
	if c.PHDelta <= 0 {
		c.PHDelta = 0.1
	}
	if c.PHLambda <= 0 {
		c.PHLambda = 12
	}
	if c.PHMinObs <= 0 {
		c.PHMinObs = 30
	}
	if c.CostAlpha <= 0 {
		c.CostAlpha = 0.2
	}
	if c.CostPHDelta <= 0 {
		c.CostPHDelta = 0.15
	}
	if c.CostPHLambda <= 0 {
		c.CostPHLambda = 3
	}
	if c.CostPHMinObs <= 0 {
		c.CostPHMinObs = 10
	}
	if c.MaxPredicates == 0 {
		c.MaxPredicates = 4096
	}
	return c
}

// predState tracks one predicate: a ring buffer of the last Window
// outcomes, EWMA fast/slow tracks, and a Page-Hinkley detector.
type predState struct {
	win        []bool
	head       int // next write position
	fill       int // occupied slots
	succ       int // TRUE outcomes within the window
	evals      int64
	stamp      int64 // recency, for capped eviction
	fast, slow float64
	ph         pageHinkley
	trips      int64
}

// costState tracks one stream's per-item acquisition cost.
type costState struct {
	mean  float64
	obs   int64
	ph    pageHinkley
	trips int64
}

// Windowed is the online estimator. It implements trace.Estimator for
// probabilities and engine.CostSource (via CostPerItem) for learned
// per-item costs.
type Windowed struct {
	mu        sync.Mutex
	cfg       Config
	preds     map[string]*predState
	costs     map[int]*costState
	subs      []func(Event)
	clock     int64
	evictions int64
	// evictHook, when set, observes each MaxPredicates eviction batch
	// (see SetEvictionHook).
	evictHook func(evicted int)
	predTrips int64
	costTrips int64
}

var _ trace.Estimator = (*Windowed)(nil)

// NewWindowed creates an estimator with the given configuration (zero
// fields select defaults; see Config).
func NewWindowed(cfg Config) *Windowed {
	return &Windowed{cfg: cfg.norm(), preds: map[string]*predState{}, costs: map[int]*costState{}}
}

// Name identifies the estimator kind in metrics ("windowed").
func (w *Windowed) Name() string { return "windowed" }

// Window returns the configured sliding-window size.
func (w *Windowed) Window() int { return w.cfg.Window }

// Subscribe registers a callback for detector events. Callbacks run
// synchronously on the goroutine that recorded the tripping observation,
// outside the estimator's lock (so they may call back into it). They must
// be fast and must not block.
func (w *Windowed) Subscribe(fn func(Event)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.subs = append(w.subs, fn)
}

// Record adds one evaluation outcome for the predicate, advancing the
// sliding window, the EWMA tracks and the change detector. A detector
// trip flushes the window — the estimate re-converges on post-shift data
// immediately instead of waiting Window evaluations — and fires an event.
func (w *Windowed) Record(pred string, success bool) {
	w.mu.Lock()
	st := w.preds[pred]
	isNew := st == nil
	if isNew {
		st = &predState{
			win:  make([]bool, w.cfg.Window),
			fast: w.cfg.PriorProb,
			slow: w.cfg.PriorProb,
			ph:   newPH(w.cfg.PHDelta, w.cfg.PHLambda, w.cfg.PHMinObs),
		}
		w.preds[pred] = st
	}
	w.clock++
	st.stamp = w.clock
	if isNew {
		w.evictLocked()
	}
	if st.fill == len(st.win) {
		if st.win[st.head] {
			st.succ--
		}
	} else {
		st.fill++
	}
	st.win[st.head] = success
	if success {
		st.succ++
	}
	st.head = (st.head + 1) % len(st.win)
	st.evals++
	x := 0.0
	if success {
		x = 1
	}
	st.fast += w.cfg.FastAlpha * (x - st.fast)
	st.slow += w.cfg.SlowAlpha * (x - st.slow)

	var ev *Event
	if before, tripped := st.ph.observe(x); tripped {
		st.trips++
		w.predTrips++
		// Flush the stale window, then re-seed it from the fast track —
		// which at trip time already reflects the ~dozens of post-shift
		// outcomes that made the detector fire — so the forced replan
		// sees a real post-shift estimate (with modest evidence weight)
		// instead of the bare prior.
		w.reseedLocked(st)
		ev = &Event{Kind: KindPredicate, Pred: pred, Stream: -1, Before: before, After: st.fast, Obs: st.evals}
	}
	subs := w.subs
	w.mu.Unlock()
	if ev != nil {
		for _, fn := range subs {
			fn(*ev)
		}
	}
}

// reseedLocked flushes a predicate's window and refills it with a small
// synthetic sample approximating the fast EWMA track: round(k * fast)
// TRUE outcomes out of k = Window/4 (capped at 16). Caller holds w.mu.
func (w *Windowed) reseedLocked(st *predState) {
	k := len(st.win) / 4
	if k > 16 {
		k = 16
	}
	trues := int(math.Round(float64(k) * st.fast))
	st.head, st.fill, st.succ = 0, 0, 0
	for i := 0; i < k; i++ {
		st.win[i] = i < trues
	}
	st.head, st.fill, st.succ = k%len(st.win), k, trues
}

// evictLocked honours MaxPredicates by batch-evicting the
// least-recently-recorded tracked predicates once the bound is crossed
// (see trace.OldestKeys for the shared amortized policy). Caller holds
// w.mu.
func (w *Windowed) evictLocked() {
	cap := w.cfg.MaxPredicates
	if cap <= 0 || len(w.preds) <= cap {
		return
	}
	stamps := make(map[string]int64, len(w.preds))
	for pred, st := range w.preds {
		stamps[pred] = st.stamp
	}
	dropped := 0
	for _, pred := range trace.OldestKeys(stamps, cap) {
		delete(w.preds, pred)
		w.evictions++
		dropped++
	}
	if dropped > 0 && w.evictHook != nil {
		w.evictHook(dropped)
	}
}

// Len returns the number of predicates tracked (at most MaxPredicates).
func (w *Windowed) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.preds)
}

// Evictions returns how many predicates have been evicted to honour
// MaxPredicates.
func (w *Windowed) Evictions() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.evictions
}

// SetEvictionHook installs an observer of MaxPredicates evictions: each
// eviction batch reports how many predicate states were dropped. The
// hook is called with the estimator's lock held and must not call back
// into it; a service journals the events (see internal/obs).
func (w *Windowed) SetEvictionHook(fn func(evicted int)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.evictHook = fn
}

// estimateLocked is the windowed Beta estimate: Laplace-style smoothing
// over the window contents only.
func (w *Windowed) estimateLocked(st *predState) float64 {
	return (float64(st.succ) + w.cfg.PriorWeight*w.cfg.PriorProb) /
		(float64(st.fill) + w.cfg.PriorWeight)
}

// Estimate returns the windowed success-probability estimate of the
// predicate and the number of observations currently in its window.
func (w *Windowed) Estimate(pred string) (p float64, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.preds[pred]
	if st == nil {
		return w.cfg.PriorProb, 0
	}
	return w.estimateLocked(st), st.fill
}

// ciWidthLocked is the full width of the normal-approximation confidence
// interval around the windowed estimate, with the effective sample size
// window fill + prior weight. An empty window yields width 1 (no
// evidence).
func (w *Windowed) ciWidthLocked(st *predState) float64 {
	p := w.cfg.PriorProb
	ess := w.cfg.PriorWeight
	if st != nil {
		p = w.estimateLocked(st)
		ess += float64(st.fill)
	}
	width := 2 * w.cfg.Z * math.Sqrt(p*(1-p)/ess)
	return math.Min(width, 1)
}

// CIWidth returns the full width of the confidence interval around the
// predicate's estimate: ~0 for a full window, 1 for no evidence. The
// engine's adaptive-executor gate uses it to keep low-evidence queries on
// the linear schedule.
func (w *Windowed) CIWidth(pred string) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ciWidthLocked(w.preds[pred])
}

// Interval returns the confidence interval around the predicate's
// estimate, clamped to [0, 1].
func (w *Windowed) Interval(pred string) (lo, hi float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.preds[pred]
	p := w.cfg.PriorProb
	if st != nil {
		p = w.estimateLocked(st)
	}
	half := w.ciWidthLocked(st) / 2
	return math.Max(0, p-half), math.Min(1, p+half)
}

// PredicateSnapshot carries one predicate's windowed evidence between
// estimators — the migration currency of a sharded runtime, where a
// query moved to another shard would otherwise re-learn its leaf
// probabilities from the prior.
type PredicateSnapshot struct {
	// Pred is the trace-store key of the predicate.
	Pred string
	// Outcomes is the window's contents, oldest first.
	Outcomes []bool
	// Evals is the lifetime evaluation count.
	Evals int64
}

// ExportPredicates snapshots the windowed state of the named predicates
// (untracked predicates are skipped).
func (w *Windowed) ExportPredicates(preds []string) []PredicateSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]PredicateSnapshot, 0, len(preds))
	for _, pred := range preds {
		st := w.preds[pred]
		if st == nil {
			continue
		}
		snap := PredicateSnapshot{Pred: pred, Evals: st.evals, Outcomes: make([]bool, 0, st.fill)}
		start := st.head - st.fill
		if start < 0 {
			start += len(st.win)
		}
		for i := 0; i < st.fill; i++ {
			snap.Outcomes = append(snap.Outcomes, st.win[(start+i)%len(st.win)])
		}
		out = append(out, snap)
	}
	return out
}

// ImportPredicates seeds this estimator with exported predicate windows.
// Predicates it already tracks are left untouched — the destination may
// share them with queries it already owns, and its own evidence wins.
// Imported windows refill the sliding window and both EWMA tracks; the
// change detector starts fresh (a detector's drift statistics are only
// meaningful against the data stream it observed).
func (w *Windowed) ImportPredicates(snaps []PredicateSnapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, snap := range snaps {
		if _, dup := w.preds[snap.Pred]; dup {
			continue
		}
		st := &predState{
			win:  make([]bool, w.cfg.Window),
			fast: w.cfg.PriorProb,
			slow: w.cfg.PriorProb,
			ph:   newPH(w.cfg.PHDelta, w.cfg.PHLambda, w.cfg.PHMinObs),
		}
		outcomes := snap.Outcomes
		if len(outcomes) > len(st.win) {
			outcomes = outcomes[len(outcomes)-len(st.win):]
		}
		for _, success := range outcomes {
			st.win[st.head] = success
			st.head = (st.head + 1) % len(st.win)
			st.fill++
			x := 0.0
			if success {
				st.succ++
				x = 1
			}
			st.fast += w.cfg.FastAlpha * (x - st.fast)
			st.slow += w.cfg.SlowAlpha * (x - st.slow)
		}
		st.evals = snap.Evals
		w.clock++
		st.stamp = w.clock
		w.preds[snap.Pred] = st
		w.evictLocked()
	}
}

// ObserveCost feeds one realized acquisition observation for a stream:
// the average per-item cost paid over items transferred items. The
// per-stream EWMA tracks the learned C — the EWMA step is weighted by
// items, so an average over many pulls moves the estimate further than
// a single-item outlier — and the cost detector watches the log-ratio
// deviation from it; on a sustained shift it snaps the EWMA to the new
// level and fires a KindStreamCost event.
func (w *Windowed) ObserveCost(stream int, perItem float64, items int) {
	if items <= 0 || perItem < 0 || math.IsNaN(perItem) || math.IsInf(perItem, 0) {
		return
	}
	w.mu.Lock()
	cs := w.costs[stream]
	if cs == nil {
		w.costs[stream] = &costState{
			mean: perItem, obs: 1,
			ph: newPH(w.cfg.CostPHDelta, w.cfg.CostPHLambda, w.cfg.CostPHMinObs),
		}
		w.mu.Unlock()
		return
	}
	r := 0.0
	if cs.mean > 1e-12 && perItem > 1e-12 {
		r = math.Log(perItem / cs.mean)
	}
	prior := cs.mean
	// The observation carries items pulls' worth of evidence: weight
	// both the EWMA step and the detector accordingly (the detector
	// weight is capped so one bulk transfer cannot trip on noise alone).
	weight := items
	if weight > 8 {
		weight = 8
	}
	alpha := w.cfg.CostAlpha
	if items > 1 {
		// Equivalent to items successive single-item EWMA steps.
		alpha = 1 - math.Pow(1-alpha, float64(items))
	}
	cs.mean += alpha * (perItem - cs.mean)
	cs.obs++
	var ev *Event
	tripped := false
	for i := 0; i < weight && !tripped; i++ {
		_, tripped = cs.ph.observe(r)
	}
	if tripped {
		cs.trips++
		w.costTrips++
		cs.mean = perItem // snap to the new regime
		ev = &Event{Kind: KindStreamCost, Stream: stream, Before: prior, After: perItem, Obs: cs.obs}
	}
	subs := w.subs
	w.mu.Unlock()
	if ev != nil {
		for _, fn := range subs {
			fn(*ev)
		}
	}
}

// CostPerItem returns the learned per-item acquisition cost of the stream
// and whether any observation backs it. It satisfies the engine's
// CostSource, so planners price C from observed pulls.
func (w *Windowed) CostPerItem(stream int) (float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cs := w.costs[stream]
	if cs == nil {
		return 0, false
	}
	return cs.mean, true
}

// Trips returns the cumulative detector trip counts.
func (w *Windowed) Trips() (predicates, costs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.predTrips, w.costTrips
}

// PredicateState is a metrics snapshot of one tracked predicate.
type PredicateState struct {
	Pred       string  `json:"pred"`
	Estimate   float64 `json:"estimate"`
	Fast       float64 `json:"fast"`
	Slow       float64 `json:"slow"`
	CIWidth    float64 `json:"ci_width"`
	WindowFill int     `json:"window_fill"`
	Evals      int64   `json:"evals"`
	Trips      int64   `json:"trips"`
}

// Predicates returns a snapshot of every tracked predicate, sorted by
// key.
func (w *Windowed) Predicates() []PredicateState {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]PredicateState, 0, len(w.preds))
	for pred, st := range w.preds {
		out = append(out, PredicateState{
			Pred:       pred,
			Estimate:   w.estimateLocked(st),
			Fast:       st.fast,
			Slow:       st.slow,
			CIWidth:    w.ciWidthLocked(st),
			WindowFill: st.fill,
			Evals:      st.evals,
			Trips:      st.trips,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pred < out[j].Pred })
	return out
}

// StreamCostState is a metrics snapshot of one stream's learned cost.
type StreamCostState struct {
	Stream       int     `json:"stream"`
	PerItem      float64 `json:"per_item"`
	Observations int64   `json:"observations"`
	Trips        int64   `json:"trips"`
}

// StreamCosts returns a snapshot of every stream with cost observations,
// sorted by registry index.
func (w *Windowed) StreamCosts() []StreamCostState {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]StreamCostState, 0, len(w.costs))
	for k, cs := range w.costs {
		out = append(out, StreamCostState{Stream: k, PerItem: cs.mean, Observations: cs.obs, Trips: cs.trips})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// AvgCIWidth returns the mean confidence-interval width over all tracked
// predicates (0 when none are tracked) — a one-number evidence gauge for
// fleet metrics.
func (w *Windowed) AvgCIWidth() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.preds) == 0 {
		return 0
	}
	sum := 0.0
	for _, st := range w.preds {
		sum += w.ciWidthLocked(st)
	}
	return sum / float64(len(w.preds))
}
