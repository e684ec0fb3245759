// Package service turns the single-query engine into a concurrent
// multi-query scheduling service: many compiled queries share one stream
// registry, one acquisition cache and one windowed estimator, time
// advances in ticks, and every query due at a tick executes on a worker
// pool.
//
// Sharing is the point of the paper's model — a data item pulled for one
// query is reused for free by every other query that needs it — and the
// service is where that sharing pays off across queries, not just across
// the leaves of one tree. The cache's per-stream retention horizon is
// kept equal to the maximum window over all registered queries,
// recomputed on register/unregister. Queries equal up to AND/OR
// commutativity form one shape class, the unit that is compiled, planned
// and invalidated: its cached plans skip re-planning on ticks where
// nothing drifted, and a detector trip drops exactly the affected
// classes' plans.
package service

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paotr/internal/acquisition"
	"paotr/internal/adapt"
	"paotr/internal/admit"
	"paotr/internal/engine"
	"paotr/internal/fleet"
	"paotr/internal/obs"
	"paotr/internal/query"
	"paotr/internal/sched"
	"paotr/internal/stream"
)

// Service schedules and executes many continuous queries over one shared
// registry and acquisition cache. All methods are safe for concurrent
// use; Register/Unregister serialize against running ticks.
type Service struct {
	mu      sync.Mutex
	reg     *stream.Registry
	eng     *engine.Engine
	cache   *acquisition.Cache
	queries map[string]*registered
	order   []*registered // registration order, for deterministic dispatch
	workers int
	history int
	exec    engine.Executor // default executor for queries without one
	planner *fleet.Planner  // fleet-level plan cache
	// Registered queries are interned into shape equivalence classes:
	// classes holds them by canonical shape key, classList in creation
	// order (the deterministic iteration drainTrips and Metrics use), and
	// planKeys maps a class's fleet plan-cache key back to it for
	// collision disambiguation.
	// textMemo shortcuts twin registration: (executor, text) of every
	// live class's members maps to the class, so registering an exact
	// twin skips compilation entirely.
	classes   map[string]*shapeClass
	classList []*shapeClass
	planKeys  map[string]*shapeClass
	textMemo  map[string]*shapeClass
	// ad is the online estimator and the service's only predicate store:
	// the engine records every leaf outcome into it and plans from it.
	// After phase 3 of every tick, realized per-stream acquisition costs
	// are fed back into it; its detector events invalidate the affected
	// shape classes' plans (see drainTrips).
	ad *adapt.Windowed
	// prevSpent/prevTransferred/prevRelaySaved snapshot per-stream cache
	// accounting at the end of the previous tick, to derive per-tick cost
	// observations. Relay savings are added back so the estimator keeps
	// learning the stream's acquisition price, not the transfer price —
	// relay discounts enter planning deterministically via costScale
	// instead of through racy realized-cost observations.
	prevSpent       []float64
	prevTransferred []int64
	prevRelaySaved  []float64
	// costScale, when non-nil, multiplies each stream's per-item cost in
	// the joint planner's view of the fleet (see SetStreamCostScale): the
	// sharded coordinator prices streams shared across shards at the
	// relay-discounted blend of acquisition and transfer cost.
	costScale []float64
	// pendingTrips buffers detector events until the next tick: trips
	// fire from phase-3 worker goroutines while the service lock is held,
	// so they cannot touch planner state directly. tripMu guards it.
	tripMu       sync.Mutex
	pendingTrips []adapt.Event
	// scratch holds the per-tick buffers Tick reuses across calls so the
	// steady-state hot path allocates little beyond the TickResult it
	// returns. Guarded by mu like everything Tick touches.
	scratch tickScratch
	// shardIdx is this service's worker index under the sharded runtime
	// (0 otherwise); executions are stamped with it at creation so query
	// histories carry their shard.
	shardIdx int
	tick     int64
	// tickNow mirrors tick for the async observability hooks: detector
	// trips and plan invalidations fire from phase-3 worker goroutines
	// while the service lock is held, so journal events read the tick
	// through this atomic instead of racing s.tick.
	tickNow atomic.Int64
	// hists records the per-phase tick-latency histograms (allocation-free
	// atomic counters), one set per service. tracer records sampled tick
	// traces (disabled by default; see WithTraceSampling) and journal the
	// rare structural events (drift trips, forced replans, evictions);
	// the sharded runtime shares one of each across its in-process
	// workers via options.
	hists   *obs.TickHists
	tracer  *obs.Tracer
	journal *obs.Journal

	// ctr accumulates the counters the tick path owns; Metrics fills in
	// the rest at snapshot time. Its PaidCost holds the executions' costs
	// only: Metrics adds BatchedCost, what the batcher paid on their
	// behalf. dupAvoidedK is the per-stream share of
	// ctr.DuplicatePullsAvoided.
	ctr         Counters
	dupAvoidedK []int64
}

// shapeClass is one shape equivalence class: every registered query whose
// compiled tree is identical up to AND/OR commutativity (and whose
// executor matches) shares one class. The tick path plans and evaluates
// one due member — the leader, the first due subscriber in registration
// order — and fans the verdict out to the rest (see Tick).
type shapeClass struct {
	// key is the interning key (executor configuration + canonical shape
	// string; see internKey).
	key string
	// planKey is the class's stable id in the fleet plan cache. It
	// depends only on the shape — never on which member happens to lead —
	// so registering a twin, unregistering any subscriber but the last,
	// or a leader change between ticks leaves cached joint plans
	// untouched: a new twin is a pure plan-cache hit with zero planning
	// work.
	planKey string
	// members holds the subscriber identities in registration order; the
	// first *due* member at a tick leads.
	members []*registered
	// q is the class's compiled query, compiled from the text that created
	// the class. Every member executes it — a commuted twin's own compile
	// only finds its class and is dropped — so the class's cached plans
	// refer to one leaf order whichever member leads. tree is q's tree,
	// re-annotated in place by planFleet every tick (see
	// engine.Query.TreeInto). texts lists the memo keys to drop when the
	// class dies.
	q     *engine.Query
	tree  *query.Tree
	texts []string
	// estPreds holds the trace keys of the class's estimator-driven
	// predicates and usedStream marks the streams its leaves read; both
	// map detector trips to the one class-level plan they invalidate
	// (see drainTrips) — O(distinct shapes) per trip, not O(fleet).
	estPreds   map[string]struct{}
	usedStream []bool
	// mark/leadIdx are Tick-scoped: mark stamps the tick the class last
	// elected a leader at, leadIdx its index in the tick's leader list.
	mark    int64
	leadIdx int
}

// tickScratch is the per-tick working set of Tick and planFleet: due
// list, adaptive plans, the joint planner's inputs and outputs, and the
// batcher's per-stream windows. Everything is truncated and refilled
// each tick, so after warm-up the buffers stop growing.
type tickScratch struct {
	due []*registered
	// Shape-factoring state: lead holds one leader per due shape class,
	// leadDueIdx each leader's index in due, leadOf maps every due index
	// to its class's leader index, and classDue counts the due
	// subscribers behind each leader (the joint planner's weights).
	lead       []*registered
	leadDueIdx []int
	leadOf     []int
	classDue   []int
	aplans     []*engine.AdaptivePlan
	fleetOf    []int // leader index -> joint-plan index, -1 outside the plan
	idx        []int // leaders running the linear executor
	adapt      []int // leaders running an adaptive executor
	keys       []string
	weights    []int
	trees      []*query.Tree
	need       []int
	warm       [][]bool
	plans      []engine.Plan
	// Batcher state: per-stream opening windows of due plans, the items
	// needed per stream, which streams were touched this tick, and the
	// cached-items snapshot duplicates are counted against.
	winds        [][]int
	batchNeed    []int
	batchTouched []bool
	batchSnap    [][]bool
	// costSave holds the unscaled per-stream costs of each planned tree
	// while costScale is applied for the joint planner (restored after
	// planning, so scaling never compounds across ticks).
	costSave [][]float64
}

// registered is one query identity under service management: the tenant
// id, result history and metrics. Structure shared with equal-shaped
// queries lives on the shape class (see shapeClass).
type registered struct {
	id    string
	text  string
	every int
	exec  engine.Executor // nil: use the service default
	// hist is a fixed-capacity ring of the last executions: once full,
	// histPos is the oldest entry (the next to overwrite). A ring —
	// rather than append-and-reslice — keeps the steady tick path free
	// of per-query backing-array churn.
	hist    []Execution
	histPos int
	m       QueryMetrics
	// cls is the shape equivalence class the query is interned into.
	cls *shapeClass
}

// Option configures a Service.
type Option func(*config)

type config struct {
	workers  int
	history  int
	engOpts  []engine.Option
	exec     engine.Executor
	adaptCfg adapt.Config
	ledger   *acquisition.Ledger
	relay    *acquisition.ItemRelay
	// repartEvery and relayFrac configure the sharded runtime (see
	// NewSharded); a plain Service ignores them.
	repartEvery int64
	relayFrac   float64
	shardIdx    int
	// Observability wiring (see internal/obs): traceSample enables tick
	// tracing at the given period, and journal/tracer install shared
	// instances (the sharded runtime shares one of each across its
	// in-process workers).
	traceSample int
	journal     *obs.Journal
	tracer      *obs.Tracer
}

// WithWorkers sets the tick worker-pool size (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithHistory sets how many past executions are retained per query for
// Results (default 64).
func WithHistory(n int) Option { return func(c *config) { c.history = n } }

// WithEngineOptions forwards options to the underlying engine (planner
// overrides, replan threshold).
func WithEngineOptions(opts ...engine.Option) Option {
	return func(c *config) { c.engOpts = append(c.engOpts, opts...) }
}

// WithExecutor sets the default execution strategy for every registered
// query (default engine.LinearExecutor). Individual queries can override
// it with WithQueryExecutor.
func WithExecutor(x engine.Executor) Option { return func(c *config) { c.exec = x } }

// WithBatchedAcquisition accepts only true: batched first-leaf
// acquisition is unconditional.
//
// Deprecated: false selected the removed unbatched acquisition path and
// panics in New and NewSharded. Drop the option.
func WithBatchedAcquisition(on bool) Option {
	return removedPath(!on, "WithBatchedAcquisition(false) selects the removed unbatched acquisition path")
}

// WithFleetPlanning accepts only true: cross-query joint planning is
// unconditional.
//
// Deprecated: false selected the removed independent per-query planning
// path and panics in New and NewSharded. engine.Workload is that
// baseline. Drop the option.
func WithFleetPlanning(on bool) Option {
	return removedPath(!on, "WithFleetPlanning(false) selects the removed independent per-query planning path")
}

// WithShapeFactoring accepts only true: cross-tenant shape factoring is
// unconditional.
//
// Deprecated: false selected the removed unfactored one-class-per-query
// path and panics in New and NewSharded. engine.Workload is that
// baseline. Drop the option.
func WithShapeFactoring(on bool) Option {
	return removedPath(!on, "WithShapeFactoring(false) selects the removed unfactored one-class-per-query path")
}

// WithCacheStripes accepts only 0: the acquisition cache always takes
// one lock stripe per stream.
//
// Deprecated: other counts selected the removed fixed-stripe cache
// (1 was the single global lock) and panic in New and NewSharded. Drop
// the option.
func WithCacheStripes(n int) Option {
	return removedPath(n != 0, fmt.Sprintf("WithCacheStripes(%d) selects the removed fixed-stripe (global-lock) cache", n))
}

// removedPath is the deprecated shims' option: applying it with a value
// that selected a removed code path panics, so the caller learns at
// construction instead of silently getting the production path.
func removedPath(removed bool, what string) Option {
	return func(*config) {
		if removed {
			panic("service: " + what)
		}
	}
}

// WithAdaptConfig tunes the windowed online estimator (window size, EWMA
// steps, Page-Hinkley thresholds; see adapt.Config).
func WithAdaptConfig(cfg adapt.Config) Option { return func(c *config) { c.adaptCfg = cfg } }

// WithSharedLedger attaches a fleet-wide acquisition ledger to the
// service's cache: every transferred item is also recorded there, so
// several caches sharing one ledger can measure their duplicated
// traffic. The sharded runtime attaches one ledger across all shard
// caches (see acquisition.Ledger); plain services rarely need this.
func WithSharedLedger(l *acquisition.Ledger) Option {
	return func(c *config) { c.ledger = l }
}

// WithSharedRelay attaches the fleet-global L2 item relay to the
// service's cache: every L1 miss consults the relay before the stream,
// transferring items another attached cache already purchased at the
// relay's transfer fraction of their acquisition cost. The sharded
// runtime attaches one relay across all shard caches (see
// acquisition.ItemRelay and WithRelay); plain services rarely need this.
func WithSharedRelay(r *acquisition.ItemRelay) Option {
	return func(c *config) { c.relay = r }
}

// WithShardIndex stamps this service's executions with its worker index
// under a sharded runtime (Execution.Shard). The in-process sharded
// runtime sets it directly; a `paotrserve -worker` process passes its
// index here so the coordinator's merged results attribute executions.
func WithShardIndex(i int) Option {
	return func(c *config) { c.shardIdx = i }
}

// WithRelay enables, for the sharded runtime, the fleet-global L2 item
// relay: frac is the per-item transfer cost as a fraction of acquisition
// cost (clamped to [0, 1]). On an L1 miss a shard worker's cache checks
// the relay index and transfers an item another shard already purchased
// at frac of its acquisition cost instead of re-acquiring it at stream
// cost; the partitioner's placement objective and every worker's joint
// planner price co-location with the matching discount. 0 (the default)
// disables the relay, leaving the runtime byte-identical to the
// relay-less service. A plain Service ignores it.
func WithRelay(frac float64) Option {
	return func(c *config) { c.relayFrac = frac }
}

// WithRepartitionEvery sets, for the sharded runtime, the minimum number
// of ticks between drift-driven repartitions: after at least n ticks, a
// tick that observes new detector trips re-runs the partitioner and
// moves queries whose learned costs shifted (0, the default, disables
// live re-partitioning; see NewSharded). A plain Service ignores it.
func WithRepartitionEvery(n int) Option {
	return func(c *config) { c.repartEvery = int64(n) }
}

// WithTraceSampling enables the span-style tick tracer at construction:
// every n-th tick records one structured trace (phase durations, due
// classes, plan cache hits vs replans, expected vs realized cost per
// executed class; see obs.TickTrace). n <= 0 leaves tracing disabled —
// the default, costing one atomic load per tick and zero allocations.
// SetTraceSampling changes the period at runtime.
func WithTraceSampling(n int) Option { return func(c *config) { c.traceSample = n } }

// WithJournal installs a shared event journal: the service appends its
// drift trips, forced replans and estimator evictions there instead of
// into a private journal. The sharded runtime shares one journal across
// its in-process workers so /debug/events shows the fleet timeline.
func WithJournal(j *obs.Journal) Option { return func(c *config) { c.journal = j } }

// WithTracer installs a shared tick tracer (see WithJournal; the sharded
// runtime shares one tracer so /debug/ticks/{n} returns every shard's
// trace of a sampled tick).
func WithTracer(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// New creates a service over the registry with an empty shared cache.
// Probabilities come from the windowed online estimator (see
// internal/adapt): leaf probabilities and per-item costs are learned
// from a sliding window of realized outcomes, and change detectors
// actively invalidate affected plans.
func New(reg *stream.Registry, opts ...Option) *Service {
	cfg := config{workers: runtime.GOMAXPROCS(0), history: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.history < 1 {
		cfg.history = 1
	}
	if cfg.exec == nil {
		cfg.exec = engine.LinearExecutor{}
	}
	ad := adapt.NewWindowed(cfg.adaptCfg)
	// Prepend so explicit WithEngineOptions overrides still win.
	engOpts := append([]engine.Option{engine.WithEstimator(ad), engine.WithCostSource(ad)}, cfg.engOpts...)
	eng := engine.New(reg, engOpts...)
	s := &Service{
		reg:             reg,
		eng:             eng,
		cache:           acquisition.NewShared(reg),
		queries:         map[string]*registered{},
		classes:         map[string]*shapeClass{},
		planKeys:        map[string]*shapeClass{},
		textMemo:        map[string]*shapeClass{},
		workers:         cfg.workers,
		history:         cfg.history,
		exec:            cfg.exec,
		ad:              ad,
		prevSpent:       make([]float64, reg.Len()),
		prevTransferred: make([]int64, reg.Len()),
		prevRelaySaved:  make([]float64, reg.Len()),
		planner:         &fleet.Planner{Eps: eng.ReplanThreshold()},
		dupAvoidedK:     make([]int64, reg.Len()),
		shardIdx:        cfg.shardIdx,
		hists:           obs.NewTickHists(),
		journal:         cfg.journal,
		tracer:          cfg.tracer,
	}
	if s.journal == nil {
		s.journal = obs.NewJournal(0)
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(0)
	}
	if cfg.traceSample > 0 {
		s.tracer.SetSample(cfg.traceSample)
	}
	if cfg.ledger != nil {
		s.cache.SetLedger(cfg.ledger)
	}
	if cfg.relay != nil {
		s.cache.SetRelay(cfg.relay)
	}
	// Detector trips fire from phase-3 worker goroutines while the
	// service lock is held, so the event is only buffered (and journaled)
	// here; the next tick drains the buffer and invalidates exactly the
	// affected shape classes' plans (see drainTrips). The journal is a
	// leaf lock, so both hooks below only append.
	ad.Subscribe(func(ev adapt.Event) {
		s.tripMu.Lock()
		s.pendingTrips = append(s.pendingTrips, ev)
		s.tripMu.Unlock()
		jev := obs.Event{Type: obs.EventDriftTrip, Tick: s.tickNow.Load(), Shard: s.shardIdx,
			Pred: ev.Pred, Before: ev.Before, After: ev.After, Detail: ev.Kind}
		if ev.Kind == adapt.KindStreamCost {
			jev.Stream = ev.Stream
		}
		s.journal.Append(jev)
	})
	ad.SetEvictionHook(func(n int) {
		s.journal.Append(obs.Event{Type: obs.EventEstimatorEviction, Tick: s.tickNow.Load(),
			Shard: s.shardIdx, Count: n, Detail: "windowed predicate states evicted"})
	})
	return s
}

// Journal returns the service's event journal (shared across workers
// under the sharded runtime).
func (s *Service) Journal() *obs.Journal { return s.journal }

// TickTraces returns every retained trace of the given tick (empty when
// the tick was not sampled; see WithTraceSampling).
func (s *Service) TickTraces(tick int64) []obs.TickTrace { return s.tracer.ForTick(tick) }

// SetTraceSampling sets the tick tracer's sampling period at runtime:
// every n-th tick records one structured trace; n <= 0 disables tracing
// (the default), restoring the zero-allocation tick path.
func (s *Service) SetTraceSampling(n int) { s.tracer.SetSample(n) }

// TraceSampling returns the current tick-trace sampling period (0 =
// disabled).
func (s *Service) TraceSampling() int { return s.tracer.Sampling() }

// TraceTicks lists the distinct sampled ticks still retained by the
// tracer's ring, oldest first.
func (s *Service) TraceTicks() []int64 { return s.tracer.Ticks() }

// ProfileTree snapshots a registered query's probability-annotated tree
// (estimator-backed probabilities, learned per-item costs) and its
// predicate trace keys — what a coordinator profiles placements and
// migrates estimator state with.
func (s *Service) ProfileTree(id string) (*query.Tree, []string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.queries[id]
	if !ok {
		return nil, nil, false
	}
	return r.cls.q.Tree(), r.cls.q.PredKeys(), true
}

// Trips totals the online estimator's detector trips (predicate and
// stream-cost alike) — the drift signal a sharded coordinator polls to
// decide when a repartition is worthwhile.
func (s *Service) Trips() int64 {
	p, c := s.ad.Trips()
	return p + c
}

// ExportEvidence snapshots the estimator evidence of the given predicate
// trace keys, for migrating a query's learned state to another worker.
func (s *Service) ExportEvidence(keys []string) []adapt.PredicateSnapshot {
	return s.ad.ExportPredicates(keys)
}

// ImportEvidence seeds estimator evidence exported from another worker;
// predicates this estimator already tracks keep their own evidence.
func (s *Service) ImportEvidence(snaps []adapt.PredicateSnapshot) {
	s.ad.ImportPredicates(snaps)
}

// SetStreamCostScale installs per-stream multipliers on the joint
// planner's view of acquisition cost (nil clears them). The sharded
// coordinator prices streams whose demand spans m shards at the
// relay-discounted blend (1 + (m-1)*frac)/m of the acquisition cost —
// the expected per-item price when one shard purchases and the rest
// relay. Scaling affects planning (leaf order and expected costs) only;
// realized costs are whatever the cache actually pays.
func (s *Service) SetStreamCostScale(scale []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := len(scale) != len(s.costScale)
	if !changed {
		for k := range scale {
			if scale[k] != s.costScale[k] {
				changed = true
				break
			}
		}
	}
	if !changed {
		return
	}
	if scale == nil {
		s.costScale = nil
	} else {
		s.costScale = append(s.costScale[:0:0], scale...)
	}
	// Cached joint plans were priced under the old scales; drop them.
	s.planner.Invalidate()
}

// Adaptive exposes the online estimator, the service's one predicate
// store, e.g. for estimator-state inspection.
func (s *Service) Adaptive() *adapt.Windowed { return s.ad }

// Engine exposes the service's engine, which compiles every shape
// class's query. Its cumulative trace store stays empty, because leaf
// outcomes are recorded into Adaptive alone.
func (s *Service) Engine() *engine.Engine { return s.eng }

// Cache exposes the shared acquisition cache.
func (s *Service) Cache() *acquisition.Cache { return s.cache }

// QueryOption configures one registered query.
type QueryOption func(*registered)

// Every makes the query execute only on every n-th tick (default 1:
// every tick). The query still shares the cache on the ticks it runs.
func Every(n int) QueryOption {
	return func(r *registered) {
		if n > 0 {
			r.every = n
		}
	}
}

// WithQueryExecutor overrides the execution strategy for this query only
// (e.g. engine.AdaptiveExecutor on a query small enough for the
// decision-tree DP, while the fleet default stays linear).
func WithQueryExecutor(x engine.Executor) QueryOption {
	return func(r *registered) { r.exec = x }
}

// ErrDuplicateID is returned by Register when the id is already taken.
var ErrDuplicateID = errors.New("service: duplicate query id")

// Register compiles the query text and adds it under the given id. The
// shared cache's retention horizons grow to cover the query's windows.
// Registering an already-taken id returns an error wrapping
// ErrDuplicateID.
func (s *Service) Register(id, text string, opts ...QueryOption) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.queries[id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	r := &registered{id: id, text: text, every: 1}
	for _, o := range opts {
		o(r)
	}
	// Exact-twin shortcut: a text already registered under the same
	// executor interns into its class without compiling again. Any other
	// text compiles to find its class; when the class already exists (a
	// commuted twin), the compile is dropped and the member runs the
	// class's query.
	mk := s.internKey(r, text)
	c := s.textMemo[mk]
	if c == nil {
		q, err := s.eng.Compile(text)
		if err != nil {
			return fmt.Errorf("service: compiling %q: %w", id, err)
		}
		ck := s.internKey(r, q.ShapeKey())
		if c = s.classes[ck]; c == nil {
			// Retention claims are held per shape class, not per identity:
			// twins share the class's windows, so a 10k-twin registration
			// storm grows the cache's horizons once, not 10k times.
			if err := s.cache.Retain(ck, q.Windows()); err != nil {
				return err
			}
			c = s.newClassLocked(ck, q)
			if _, adaptive := s.executorFor(r).(engine.AdaptiveExecutor); !adaptive {
				// A new linear class joins the planner's resident joint state
				// with the placement its quote priced, so the next quote
				// prices against it before any tick re-places it.
				tree, warm := s.nextTreeLocked(q)
				s.planner.Admit(c.planKey, tree, warm)
			}
		}
		s.textMemo[mk] = c
		c.texts = append(c.texts, mk)
	}
	r.m = QueryMetrics{ID: id, Query: text, Every: r.every, Executor: s.executorFor(r).Name()}
	c.members = append(c.members, r)
	r.cls = c
	s.queries[id] = r
	s.order = append(s.order, r)
	return nil
}

// internKey keys what a query interns under — its shape class (of =
// the shape key) or its exact-twin memo entry (of = the query text) — on
// its executor's kind and configuration. Equal trees driven by different
// strategies, or by one strategy under different settings such as an
// adaptive gap threshold, execute differently, so they must not share
// executions.
func (s *Service) internKey(r *registered, of string) string {
	return fmt.Sprintf("%#v\x00%s", s.executorFor(r), of)
}

// newClassLocked creates the shape class with interning key ck around
// the compiled query q and returns it. Caller holds the service lock.
func (s *Service) newClassLocked(ck string, q *engine.Query) *shapeClass {
	c := &shapeClass{key: ck, q: q, planKey: s.planKeyLocked(q.ShapeHash())}
	// Precompute the trip-mapping sets once per class: which
	// estimator-driven predicate keys and which streams the shape depends
	// on (see drainTrips).
	keys := q.PredKeys()
	c.estPreds = make(map[string]struct{})
	for j, p := range q.Preds {
		if math.IsNaN(p.Prob) {
			c.estPreds[keys[j]] = struct{}{}
		}
	}
	wins := q.Windows()
	c.usedStream = make([]bool, len(wins))
	for k, w := range wins {
		c.usedStream[k] = w > 0
	}
	s.classes[ck] = c
	s.classList = append(s.classList, c)
	s.planKeys[c.planKey] = c
	// Joint plans are keyed by due-set plan keys: a reused key must not
	// inherit a plan built for a class that previously held it. Marking
	// it stale replans just this class into the cached joint plan instead
	// of dropping the whole plan cache. A twin joining an existing class
	// deliberately marks nothing: the planner's inputs are unchanged, so
	// the next tick is a pure plan-cache hit.
	s.planner.MarkStale(c.planKey)
	return c
}

// planKeyLocked returns the fleet plan-cache key a new class of shape
// hash h gets: derived from the shape alone — never from which member
// happens to lead — and disambiguated on the (vanishingly rare) 64-bit
// hash collision between two live distinct shapes. Registration and
// quoting both use it, so a quote prices exactly the due set a real
// admission produces. Caller holds the service lock.
func (s *Service) planKeyLocked(h uint64) string {
	pk := fmt.Sprintf("shape:%016x", h)
	for n := 1; ; n++ {
		if _, taken := s.planKeys[pk]; !taken {
			return pk
		}
		pk = fmt.Sprintf("shape:%016x#%d", h, n)
	}
}

// Unregister removes a query and releases its retention claim; the
// cache's horizons shrink to the maximum over the remaining queries.
func (s *Service) Unregister(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.queries[id]
	if !ok {
		return fmt.Errorf("service: unknown query id %q", id)
	}
	delete(s.queries, id)
	for i, o := range s.order {
		if o.id == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	c := r.cls
	for i, m := range c.members {
		if m == r {
			c.members = append(c.members[:i], c.members[i+1:]...)
			break
		}
	}
	if len(c.members) == 0 {
		// Last subscriber gone: the class dies with it, releasing the
		// class-held retention claim, its compiled query, the exact-twin
		// memo entries (see Register) and its place in the planner's
		// resident joint state.
		s.planner.Remove(c.planKey)
		delete(s.classes, c.key)
		delete(s.planKeys, c.planKey)
		for i, o := range s.classList {
			if o == c {
				s.classList = append(s.classList[:i], s.classList[i+1:]...)
				break
			}
		}
		s.cache.Release(c.key)
		for _, mk := range c.texts {
			delete(s.textMemo, mk)
		}
	}
	// A surviving class keeps its plan key, cached plans and retention
	// claim: unregistering one of several subscribers is free for the
	// planner and the cache.
	// No planner invalidation: a shrunken due set misses the plan-cache
	// key, and the planner patches the cached joint plan by dropping just
	// this class's schedule (see fleet.Planner).
	return nil
}

// drainTrips consumes the detector events buffered since the last tick
// and invalidates the affected shape classes' plans: a predicate trip
// touches the classes whose estimator-driven predicates include the
// tripped key, a stream-cost trip the classes with a leaf on the stream.
// A linear class's joint-plan entry is marked stale, so the next joint
// plan re-places exactly those classes against the kept schedules of the
// rest (see fleet.Planner); an adaptive class drops its cached decision
// tree. One invalidation per class covers every subscriber — a trip on
// a predicate shared by 10k twins costs one replan, O(distinct shapes)
// per trip instead of O(fleet). This is the only code that maps trips to
// plans. Caller holds the service lock.
func (s *Service) drainTrips() {
	s.tripMu.Lock()
	trips := s.pendingTrips
	s.pendingTrips = nil
	s.tripMu.Unlock()
	if len(trips) == 0 {
		return
	}
	forced := 0
	for _, ev := range trips {
		for _, c := range s.classList {
			hit := false
			switch ev.Kind {
			case adapt.KindPredicate:
				_, hit = c.estPreds[ev.Pred]
			case adapt.KindStreamCost:
				hit = ev.Stream >= 0 && ev.Stream < len(c.usedStream) && c.usedStream[ev.Stream]
			default:
				hit = true
			}
			if !hit {
				continue
			}
			if _, adaptive := s.executorFor(c.members[0]).(engine.AdaptiveExecutor); adaptive {
				if c.q.InvalidatePlan() {
					forced++
				}
			} else {
				forced += s.planner.MarkStale(c.planKey)
			}
		}
	}
	s.ctr.ReplansForced += int64(forced)
	if forced > 0 {
		s.journal.Append(obs.Event{Type: obs.EventForcedReplan, Tick: s.tick, Shard: s.shardIdx,
			Count: forced, Detail: "shape-class plans invalidated"})
	}
}

// QueryIDs lists registered query ids in registration order.
func (s *Service) QueryIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, len(s.order))
	for i, r := range s.order {
		ids[i] = r.id
	}
	return ids
}

// Execution records one query execution at one tick.
type Execution struct {
	// ID is the query id.
	ID string `json:"id"`
	// Tick is the service tick at which the execution ran.
	Tick int64 `json:"tick"`
	// Value is the query's truth value.
	Value bool `json:"value"`
	// Cost is the acquisition cost this execution paid. Under a shared
	// cache, an item pulled by one query is free for the others, so the
	// per-query split depends on dispatch order; the sum is what matters.
	Cost float64 `json:"cost"`
	// ExpectedCost is the planner's expected cost at planning time.
	ExpectedCost float64 `json:"expected_cost"`
	// Evaluated counts predicates computed before the tree resolved.
	Evaluated int `json:"evaluated"`
	// PlanReused reports a plan-cache hit.
	PlanReused bool `json:"plan_reused"`
	// Strategy is the execution strategy actually used
	// (engine.StrategyLinear or engine.StrategyAdaptive; an adaptive
	// executor falls back to "linear" above the DP bound or below the gap
	// threshold).
	Strategy string `json:"strategy,omitempty"`
	// FleetPlanned reports that the schedule came from the cross-query
	// joint planner rather than the query's own executor (every linear
	// query is joint-planned; see Tick). ExpectedCost is then the query's
	// share of the joint expected cost, which discounts items sibling
	// queries pull.
	FleetPlanned bool `json:"fleet_planned,omitempty"`
	// Shared reports that the execution was served by fanning out a shape
	// leader's result instead of re-evaluating the tree (see Tick): Value,
	// Evaluated and ExpectedCost are the leader's, and Cost is 0 because
	// the class paid once through the leader.
	Shared bool `json:"shared,omitempty"`
	// Shard is the shard worker that ran the execution, stamped at
	// creation so Results histories carry it too (always 0 — omitted —
	// on a plain or one-shard service).
	Shard int `json:"shard,omitempty"`
	// Err is the execution error, if any.
	Err string `json:"err,omitempty"`
}

// TickResult reports everything that ran during one tick.
type TickResult struct {
	// Tick is the time step just processed.
	Tick int64 `json:"tick"`
	// Executions holds one entry per due query: in registration order on
	// a plain Service, shard by shard under the sharded runtime (see
	// Sharded.Tick).
	Executions []Execution `json:"executions"`
}

// executorFor returns the query's executor, falling back to the service
// default.
func (s *Service) executorFor(r *registered) engine.Executor {
	if r.exec != nil {
		return r.exec
	}
	return s.exec
}

// fanOut runs f(0..n-1) on the tick worker pool and waits for completion.
// Caller holds the service lock, so registration cannot race.
func (s *Service) fanOut(n int, f func(int)) {
	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// planFleet jointly plans the due shape-class leaders running the linear
// executor (Tick lists their leader indices in sc.idx): their classes'
// probability-annotated trees are handed to the fleet planner as one
// workload against the shared warm cache state — keyed by the classes'
// stable plan keys and weighted by their due subscriber counts — and the
// resulting per-class schedules are bound into the scratch plan slice
// executed directly in phase 3; fleetOf maps the leader indices covered
// by the joint plan to their plan. Returns nil when no leader runs the
// linear executor. The planner builds valid schedules by
// construction, so a joint plan that fails validation is a planner
// defect: the plan cache is dropped, the event journaled, and the error
// returned for Tick to fail the linear leaders' executions with. All
// planner inputs live in the tick scratch — trees are re-annotated in
// place and the planner deep-copies what it caches — so a steady-state
// plan allocates nothing here. Caller holds the service lock.
func (s *Service) planFleet(lead []*registered) (*fleet.Plan, error) {
	sc := &s.scratch
	if len(sc.idx) == 0 {
		return nil, nil
	}
	idx := sc.idx
	sc.keys = sc.keys[:0]
	sc.weights = sc.weights[:0]
	sc.trees = sc.trees[:0]
	if cap(sc.need) < s.reg.Len() {
		sc.need = make([]int, s.reg.Len())
	}
	sc.need = sc.need[:s.reg.Len()]
	for k := range sc.need {
		sc.need[k] = 0
	}
	for _, i := range idx {
		c := lead[i].cls
		c.tree = c.q.TreeInto(c.tree)
		sc.keys = append(sc.keys, c.planKey)
		sc.weights = append(sc.weights, sc.classDue[i])
		sc.trees = append(sc.trees, c.tree)
		for _, lf := range c.tree.Leaves {
			if k := int(lf.Stream); lf.Items > sc.need[k] {
				sc.need[k] = lf.Items
			}
		}
	}
	// Relay-discounted C: scale each tree's per-stream costs for the
	// joint planner's eyes only, saving the annotated values so the
	// scaling never compounds across ticks (TreeInto re-annotates only
	// streams the cost source has observations for).
	if s.costScale != nil {
		if cap(sc.costSave) < len(sc.trees) {
			sc.costSave = append(sc.costSave, make([][]float64, len(sc.trees)-len(sc.costSave))...)
		}
		sc.costSave = sc.costSave[:len(sc.trees)]
		for ti, t := range sc.trees {
			save := sc.costSave[ti][:0]
			for k := range t.Streams {
				save = append(save, t.Streams[k].Cost)
				if k < len(s.costScale) {
					t.Streams[k].Cost *= s.costScale[k]
				}
			}
			sc.costSave[ti] = save
		}
		defer func() {
			for ti, t := range sc.trees {
				for k := range t.Streams {
					t.Streams[k].Cost = sc.costSave[ti][k]
				}
			}
		}()
	}
	sc.warm = s.cache.SnapshotInto(sc.need, sc.warm)
	start := time.Now()
	fplan, reused := s.planner.PlanWeighted(sc.keys, sc.trees, sc.weights, sched.Warm(sc.warm))
	err := fplan.Validate(sc.trees)
	s.ctr.PlanNanos += time.Since(start).Nanoseconds()
	if err != nil {
		s.planner.Invalidate()
		s.journal.Append(obs.Event{Type: obs.EventForcedReplan, Tick: s.tick, Shard: s.shardIdx,
			Count: len(idx), Detail: "invalid joint plan: " + err.Error()})
		return nil, err
	}
	s.ctr.FleetPlans++
	if reused {
		s.ctr.FleetPlanReuses++
	} else {
		s.ctr.FleetPlacedClasses += int64(fplan.Placed)
		if fplan.Patched {
			s.ctr.FleetPlanIncremental++
		}
	}
	s.ctr.FleetPlannedExecutions += int64(len(idx))
	s.ctr.FleetExpectedCost += fplan.Expected
	s.ctr.IndependentExpectedCost += fplan.IndependentExpected
	if cap(sc.plans) < len(idx) {
		sc.plans = make([]engine.Plan, len(idx))
	}
	sc.plans = sc.plans[:len(idx)]
	for fi, i := range idx {
		qp := fplan.Queries[fi]
		sc.plans[fi] = engine.Plan{
			Tree:         sc.trees[fi],
			Schedule:     qp.Schedule,
			ExpectedCost: qp.Expected,
			Reused:       reused,
		}
		sc.fleetOf[i] = fi
	}
	return fplan, nil
}

// Tick advances shared time by one step and executes every due query on
// the worker pool, in three phases:
//
//  1. Plan: one leader per due shape class plans for the class. The
//     linear-executor classes are planned as one joint workload by the
//     fleet planner (internal/fleet) — a leaf's marginal cost is
//     discounted by the probability that some sibling class's schedule
//     pulls the same items — while adaptive-executor classes build (or
//     reuse) their own decision trees. Planning only reads the cache, so
//     all plans of one tick see the same state.
//  2. Batch: the joint plan's acquisition manifest, merged with the
//     first-leaf windows of the adaptive plans, is deduplicated and each
//     shared stream is pre-acquired once. First leaves are never
//     short-circuited, so every pre-pulled item would have been paid for
//     by some query this tick anyway; batching stops concurrent workers
//     from racing to pull the same items (see Metrics.BatchedCost).
//  3. Execute: the planned leaders run on the worker pool. The cache
//     stripes pulls per stream, so workers on different streams proceed
//     in parallel and the first query to need an item pays for it while
//     the rest reuse it for free.
func (s *Service) Tick() TickResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	tickStart := time.Now()
	s.tick++
	s.tickNow.Store(s.tick)
	// One package-gate atomic load when tracing is disabled anywhere in
	// the process — the whole tracing branch costs nothing otherwise.
	traced := s.tracer.Sample(s.tick)
	s.cache.Advance(1)
	s.drainTrips()

	sc := &s.scratch
	sc.due = sc.due[:0]
	for _, r := range s.order {
		if s.tick%int64(r.every) == 0 {
			sc.due = append(sc.due, r)
		}
	}
	due := sc.due
	out := TickResult{Tick: s.tick, Executions: make([]Execution, len(due))}
	if len(due) == 0 {
		s.hists.Observe(obs.PhaseTotal, time.Since(tickStart))
		return out
	}

	// Leader election: the first due subscriber of each shape class leads,
	// and later due twins point at it through leadOf. classDue counts the
	// due subscribers behind each leader: the joint planner's weights.
	sc.lead = sc.lead[:0]
	sc.leadDueIdx = sc.leadDueIdx[:0]
	sc.classDue = sc.classDue[:0]
	if cap(sc.leadOf) < len(due) {
		sc.leadOf = make([]int, len(due))
	}
	leadOf := sc.leadOf[:len(due)]
	for i, r := range due {
		c := r.cls
		if c.mark != s.tick {
			c.mark = s.tick
			c.leadIdx = len(sc.lead)
			sc.lead = append(sc.lead, r)
			sc.leadDueIdx = append(sc.leadDueIdx, i)
			sc.classDue = append(sc.classDue, 0)
		}
		leadOf[i] = c.leadIdx
		sc.classDue[c.leadIdx]++
	}
	lead, leadDueIdx := sc.lead, sc.leadDueIdx
	planStart := time.Now()

	// Leaders by executor: the linear ones are planned jointly (phase 1a),
	// the adaptive ones each plan their own decision tree (phase 1b).
	sc.idx, sc.adapt = sc.idx[:0], sc.adapt[:0]
	for i, r := range lead {
		if _, adaptive := s.executorFor(r).(engine.AdaptiveExecutor); adaptive {
			sc.adapt = append(sc.adapt, i)
		} else {
			sc.idx = append(sc.idx, i)
		}
	}

	// Phase 1a: joint planning of the linear-executor leaders. An invalid
	// joint plan fails their executions (see planFleet).
	if cap(sc.aplans) < len(lead) {
		sc.aplans = make([]*engine.AdaptivePlan, len(lead))
		sc.fleetOf = make([]int, len(lead))
	}
	aplans := sc.aplans[:len(lead)]
	fleetOf := sc.fleetOf[:len(lead)]
	for i := range aplans {
		aplans[i] = nil
		fleetOf[i] = -1
	}
	fplan, err := s.planFleet(lead)
	if err != nil {
		for _, i := range sc.idx {
			out.Executions[leadDueIdx[i]] = Execution{ID: lead[i].id, Tick: s.tick, Shard: s.shardIdx, Err: err.Error()}
		}
	}

	// Phase 1b: every adaptive-executor leader plans its class's decision
	// tree (or linear fallback). A fleet without one skips the hand-off.
	if adapt := sc.adapt; len(adapt) > 0 {
		s.fanOut(len(adapt), func(n int) {
			i := adapt[n]
			r := lead[i]
			x := s.executorFor(r).(engine.AdaptiveExecutor)
			ap, err := r.cls.q.PlanAdaptive(s.cache, x.GapThreshold)
			if err != nil {
				out.Executions[leadDueIdx[i]] = Execution{ID: r.id, Tick: s.tick, Shard: s.shardIdx, Err: err.Error()}
				return
			}
			aplans[i] = ap
		})
	}
	planDur := time.Since(planStart)
	acquireStart := time.Now()

	// Phase 2: batched acquisition of the deduplicated opening windows.
	n := s.reg.Len()
	if cap(sc.winds) < n {
		sc.winds = make([][]int, n)
		sc.batchNeed = make([]int, n)
		sc.batchTouched = make([]bool, n)
	}
	winds, need, touched := sc.winds[:n], sc.batchNeed[:n], sc.batchTouched[:n]
	for k := range winds {
		winds[k] = winds[k][:0]
		need[k] = 0
		touched[k] = false
	}
	if fplan != nil {
		for _, pf := range fplan.Manifest {
			winds[pf.Stream] = append(winds[pf.Stream], pf.Windows...)
			touched[pf.Stream] = true
			if pf.Items > need[pf.Stream] {
				need[pf.Stream] = pf.Items
			}
		}
	}
	for _, ap := range aplans {
		if ap == nil {
			continue // joint-planned (in the manifest), or failed
		}
		k, d, ok := ap.FirstAcquisition()
		if !ok {
			continue
		}
		winds[k] = append(winds[k], d)
		touched[k] = true
		if d > need[k] {
			need[k] = d
		}
	}
	// Count duplicates against items that actually have to be
	// transferred: a cached item costs nothing to re-request, but a
	// missing item wanted by n queries would be raced for by n workers
	// and is now pulled exactly once.
	sc.batchSnap = s.cache.SnapshotInto(need, sc.batchSnap)
	cached := sc.batchSnap
	for k := range winds {
		if !touched[k] {
			continue
		}
		ds := winds[k]
		for t := 1; t <= need[k]; t++ {
			if cached[k][t-1] {
				continue
			}
			covering := 0
			for _, d := range ds {
				if d >= t {
					covering++
				}
			}
			s.ctr.DuplicatePullsAvoided += int64(covering - 1)
			s.dupAvoidedK[k] += int64(covering - 1)
		}
		items, cost := s.cache.Prefetch(k, need[k])
		s.ctr.BatchedItems += int64(items)
		s.ctr.BatchedCost += cost
	}

	acquireDur := time.Since(acquireStart)
	execStart := time.Now()

	// Phase 3: execute the leaders, each running its class's query.
	// Fleet-planned classes run their scratch plan directly.
	s.fanOut(len(lead), func(i int) {
		r := lead[i]
		var res engine.Result
		var err error
		if fi := fleetOf[i]; fi >= 0 {
			res, err = r.cls.q.ExecutePlan(&sc.plans[fi], s.cache)
		} else if aplans[i] != nil {
			res, err = r.cls.q.ExecuteAdaptivePlan(aplans[i], s.cache)
		} else {
			return // planning failed; the error is already recorded
		}
		e := Execution{
			ID:           r.id,
			Tick:         s.tick,
			Shard:        s.shardIdx,
			Value:        res.Value,
			Cost:         res.Cost,
			ExpectedCost: res.ExpectedCost,
			Evaluated:    res.Evaluated,
			PlanReused:   res.PlanReused,
			Strategy:     res.Strategy,
			FleetPlanned: fleetOf[i] >= 0,
		}
		if err != nil {
			e.Err = err.Error()
		}
		out.Executions[leadDueIdx[i]] = e
	})
	execDur := time.Since(execStart)
	fanStart := time.Now()

	// Fan the leaders' results out to their due twins: every shared
	// subscriber observes the leader's verdict, evaluated count and
	// modelled cost under its own identity. Realized Cost stays 0 — the
	// class paid once, through the leader — and the execution is flagged
	// Shared. Errors fan out too: a failing shape fails every subscriber.
	if len(lead) < len(due) {
		for i, r := range due {
			li := leadOf[i]
			if leadDueIdx[li] == i {
				continue // the leader itself
			}
			e := &out.Executions[i]
			*e = out.Executions[leadDueIdx[li]]
			e.ID = r.id
			e.Cost = 0
			e.Shared = true
			s.ctr.SharedExecutions++
		}
	}

	for i, r := range due {
		e := &out.Executions[i]
		s.ctr.Executions++
		if e.PlanReused {
			s.ctr.PlanCacheHits++
		}
		s.ctr.PaidCost += e.Cost
		s.ctr.ExpectedCost += e.ExpectedCost
		s.ctr.PredicatesEvaluated += int64(e.Evaluated)
		if e.Strategy == engine.StrategyAdaptive {
			s.ctr.AdaptiveExecutions++
			r.m.AdaptiveExecutions++
		}
		r.m.Executions++
		if e.Value {
			r.m.TrueCount++
		}
		r.m.PaidCost += e.Cost
		r.m.ExpectedCost += e.ExpectedCost
		r.m.PredicatesEvaluated += int64(e.Evaluated)
		if e.PlanReused {
			r.m.PlanCacheHits++
		}
		if e.Err != "" {
			r.m.Errors++
		}
		if len(r.hist) < s.history {
			if r.hist == nil {
				r.hist = make([]Execution, 0, s.history)
			}
			r.hist = append(r.hist, *e)
		} else {
			r.hist[r.histPos] = *e
			if r.histPos++; r.histPos == s.history {
				r.histPos = 0
			}
		}
	}
	s.observeCosts()

	// Per-phase latency: five allocation-free atomic bumps.
	totalDur := time.Since(tickStart)
	s.hists.Observe(obs.PhasePlan, planDur)
	s.hists.Observe(obs.PhaseAcquire, acquireDur)
	s.hists.Observe(obs.PhaseExecute, execDur)
	s.hists.Observe(obs.PhaseFanOut, time.Since(fanStart))
	s.hists.Observe(obs.PhaseTotal, totalDur)
	if traced {
		s.recordTrace(tickStart, planDur, acquireDur, execDur, time.Since(fanStart), totalDur, len(due), lead, leadDueIdx, out)
	}
	return out
}

// recordTrace builds and stores one sampled tick trace (see
// WithTraceSampling). Only sampled ticks reach here, so its allocations
// never touch the steady-state tick path. Caller holds the service lock.
func (s *Service) recordTrace(start time.Time, plan, acquire, exec, fan, total time.Duration,
	dueN int, lead []*registered, leadDueIdx []int, out TickResult) {
	tr := obs.TickTrace{
		Tick:        s.tick,
		Shard:       s.shardIdx,
		StartUnixNs: start.UnixNano(),
		PlanNs:      int64(plan),
		AcquireNs:   int64(acquire),
		ExecuteNs:   int64(exec),
		FanOutNs:    int64(fan),
		TotalNs:     int64(total),
		DueQueries:  dueN,
		DueClasses:  len(lead),
		Classes:     make([]obs.ClassTrace, len(lead)),
	}
	for i, r := range lead {
		e := out.Executions[leadDueIdx[i]]
		tr.Classes[i] = obs.ClassTrace{
			Leader:       r.id,
			Shape:        r.cls.planKey,
			Subscribers:  s.scratch.classDue[i],
			PlanReused:   e.PlanReused,
			FleetPlanned: e.FleetPlanned,
			Strategy:     e.Strategy,
			ExpectedCost: e.ExpectedCost,
			RealizedCost: e.Cost,
			Evaluated:    e.Evaluated,
			Err:          e.Err,
		}
	}
	s.tracer.Record(tr)
}

// observeCosts feeds this tick's realized per-stream acquisition costs
// into the online estimator: for every stream that transferred items
// since the previous tick, the average per-item cost actually paid. This
// is how the planner's C becomes a learned quantity — and how the
// per-stream cost detectors see price-regime shifts. Caller holds the
// service lock.
func (s *Service) observeCosts() {
	for k := 0; k < s.reg.Len(); k++ {
		ss := s.cache.StreamStats(k)
		items := ss.Transferred - s.prevTransferred[k]
		// Relay savings are added back: the estimator learns the stream's
		// acquisition price, not the (race-dependent) mix of full and
		// transfer prices this shard happened to pay. Relay discounts
		// reach the planner deterministically via SetStreamCostScale.
		spent := ss.Spent - s.prevSpent[k] + (ss.RelaySaved - s.prevRelaySaved[k])
		s.prevTransferred[k] = ss.Transferred
		s.prevSpent[k] = ss.Spent
		s.prevRelaySaved[k] = ss.RelaySaved
		if items > 0 {
			s.ad.ObserveCost(k, spent/float64(items), int(items))
		}
	}
}

// Run executes n consecutive ticks and returns their results.
func (s *Service) Run(n int) []TickResult {
	out := make([]TickResult, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Tick())
	}
	return out
}

// Results returns the most recent executions of a query (up to the
// configured history), oldest first.
func (s *Service) Results(id string, n int) ([]Execution, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.queries[id]
	if !ok {
		return nil, fmt.Errorf("service: unknown query id %q", id)
	}
	// Unroll the ring into chronological order: oldest at histPos once
	// the ring is full, at 0 while still filling.
	h := make([]Execution, 0, len(r.hist))
	if len(r.hist) == cap(r.hist) {
		h = append(h, r.hist[r.histPos:]...)
		h = append(h, r.hist[:r.histPos]...)
	} else {
		h = append(h, r.hist...)
	}
	if n > 0 && n < len(h) {
		h = h[len(h)-n:]
	}
	return h, nil
}

// QueryMetrics aggregates the executions of one query.
type QueryMetrics struct {
	ID    string `json:"id"`
	Query string `json:"query"`
	Every int    `json:"every"`
	// Executor is the strategy kind the query's executor aims for
	// ("linear", "adaptive"); AdaptiveExecutions counts executions that
	// actually walked a decision tree rather than falling back.
	Executor           string `json:"executor"`
	AdaptiveExecutions int64  `json:"adaptive_executions,omitempty"`
	Executions         int64  `json:"executions"`
	TrueCount          int64  `json:"true_count"`
	// PaidCost is the acquisition cost this query's executions paid;
	// ExpectedCost sums the planner's expectations. Under a shared cache
	// the per-query split of paid cost depends on dispatch order (and
	// batched acquisitions are paid by the fleet), so
	// RealizedOverExpected is most meaningful fleet-wide.
	PaidCost             float64 `json:"paid_cost"`
	ExpectedCost         float64 `json:"expected_cost"`
	RealizedOverExpected float64 `json:"realized_over_expected"`
	PredicatesEvaluated  int64   `json:"predicates_evaluated"`
	PlanCacheHits        int64   `json:"plan_cache_hits"`
	Errors               int64   `json:"errors"`
}

// withRatio returns the metrics with the realized-vs-expected cost ratio
// filled in.
func (m QueryMetrics) withRatio() QueryMetrics {
	if m.ExpectedCost > 0 {
		m.RealizedOverExpected = m.PaidCost / m.ExpectedCost
	}
	return m
}

// QueryMetrics returns the per-query aggregates.
func (s *Service) QueryMetrics(id string) (QueryMetrics, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.queries[id]
	if !ok {
		return QueryMetrics{}, fmt.Errorf("service: unknown query id %q", id)
	}
	return r.m.withRatio(), nil
}

// Counters is the additive part of the fleet snapshot: every field sums
// across shard workers, so the sharded runtime's value is the sum of its
// workers' values (see Add). Most fields are monotone counters;
// DistinctShapes, ShapeSubscribers and TrackedPredicates are gauges that
// add up as well, because twins never split across shards and every
// worker has its own estimator. Metrics embeds it, and /metrics.prom
// renders every field (see cmd/paotrserve/prom.go): a new counter is one
// field here, its accumulation, one line in Add and one exposition
// family.
type Counters struct {
	// Executions counts query executions across all ticks.
	Executions int64 `json:"executions"`
	// PaidCost is the total acquisition cost actually paid by the fleet;
	// ExpectedCost sums the planners' expectations. Paid below expected
	// is the shared-cache dividend.
	PaidCost     float64 `json:"paid_cost"`
	ExpectedCost float64 `json:"expected_cost"`
	// AdaptiveExecutions counts executions that walked a decision tree
	// instead of a fixed schedule (see engine.AdaptiveExecutor).
	AdaptiveExecutions int64 `json:"adaptive_executions"`
	// BatchedCost and BatchedItems report what the tick-level acquisition
	// batcher pre-pulled on behalf of the fleet (included in PaidCost);
	// DuplicatePullsAvoided counts, over items that actually had to be
	// transferred, the redundant first-leaf requests beyond the first —
	// the pulls concurrent workers would have raced to issue for the same
	// missing item (see Tick).
	BatchedCost           float64 `json:"batched_cost"`
	BatchedItems          int64   `json:"batched_items"`
	DuplicatePullsAvoided int64   `json:"duplicate_pulls_avoided"`
	// PredicatesEvaluated counts predicate evaluations across the fleet.
	PredicatesEvaluated int64 `json:"predicates_evaluated"`
	// PlanCacheHits counts executions that skipped re-planning (see
	// engine.WithReplanThreshold).
	PlanCacheHits int64 `json:"plan_cache_hits"`
	// FleetPlans counts ticks planned jointly across queries and
	// FleetPlanReuses the subset served from the fleet plan cache;
	// FleetPlannedExecutions counts executions that ran a joint
	// schedule (see Tick).
	FleetPlans             int64 `json:"fleet_plans"`
	FleetPlanReuses        int64 `json:"fleet_plan_reuses"`
	FleetPlannedExecutions int64 `json:"fleet_planned_executions"`
	// FleetPlanIncremental counts the fleet plans that kept some classes'
	// cached schedules and re-placed only the rest — register/unregister,
	// detector trips and drift past the replan threshold absorbed without
	// replanning the whole fleet (see fleet.Planner). PlanNanos
	// is the cumulative wall-clock time spent in joint planning.
	FleetPlanIncremental int64 `json:"plan_incremental"`
	PlanNanos            int64 `json:"plan_ns"`
	// FleetPlacedClasses counts the classes the joint greedy placed
	// (fleet.Plan.Placed): every class of a from-scratch plan, the
	// registered, stale and drifted ones of a patch, none of a reuse. It is
	// the work joint planning time follows.
	FleetPlacedClasses int64 `json:"fleet_placed_classes"`
	// FleetExpectedCost sums the joint planner's modelled fleet costs
	// (every shared item priced once); IndependentExpectedCost sums what
	// per-query planning would have modelled for the same workloads.
	FleetExpectedCost       float64 `json:"fleet_expected_cost"`
	IndependentExpectedCost float64 `json:"independent_expected_cost"`
	// DistinctShapes counts the live shape equivalence classes (equal to
	// the query count when no two queries share a shape) and
	// ShapeSubscribers the registered identities interned into them;
	// SharedExecutions counts executions served by fanning a leader's
	// result out to a twin instead of re-evaluating the tree.
	DistinctShapes   int   `json:"distinct_shapes"`
	ShapeSubscribers int   `json:"shape_subscribers"`
	SharedExecutions int64 `json:"shared_executions"`
	// PredicateDetectorTrips / CostDetectorTrips count Page-Hinkley
	// regime-shift detections on predicate probabilities and per-stream
	// acquisition costs; ReplansForced counts the shape-class plans those
	// trips invalidated — joint-plan entries marked stale plus cached
	// decision trees dropped (targeted invalidation instead of passive
	// drift checks; see drainTrips).
	PredicateDetectorTrips int64 `json:"predicate_detector_trips"`
	CostDetectorTrips      int64 `json:"cost_detector_trips"`
	ReplansForced          int64 `json:"replans_forced"`
	// TrackedPredicates is the number of predicates the windowed
	// estimator tracks, the store planning reads; TraceEvictions counts
	// predicates evicted to honour its cap (adapt.Config.MaxPredicates,
	// default 4096).
	TrackedPredicates int   `json:"tracked_predicates"`
	TraceEvictions    int64 `json:"trace_evictions"`
	// CacheRequested / CacheTransferred report shared acquisition-cache
	// traffic: items asked for, and items actually acquired.
	CacheRequested   int64 `json:"cache_requested"`
	CacheTransferred int64 `json:"cache_transferred"`
	// RelayHits counts L1 misses served from the fleet-global L2 relay
	// instead of re-acquiring from the stream; RelaySavedSpend is the
	// acquisition cost those hits avoided net of transfer prices.
	// RelayPurchases counts the items acquired at full stream cost (once
	// fleet-wide) and RelayTransferSpend the cost paid for relay
	// transfers. All four are zero without an attached relay (see
	// acquisition.ItemRelay).
	RelayHits          int64   `json:"relay_hits,omitempty"`
	RelaySavedSpend    float64 `json:"relay_saved_spend,omitempty"`
	RelayPurchases     int64   `json:"relay_purchases,omitempty"`
	RelayTransferSpend float64 `json:"relay_transfer_spend,omitempty"`
}

// Add sums o into c field by field. It is the only code that merges
// counters: the sharded runtime adds its workers' snapshots with it.
func (c *Counters) Add(o Counters) {
	c.Executions += o.Executions
	c.PaidCost += o.PaidCost
	c.ExpectedCost += o.ExpectedCost
	c.AdaptiveExecutions += o.AdaptiveExecutions
	c.BatchedCost += o.BatchedCost
	c.BatchedItems += o.BatchedItems
	c.DuplicatePullsAvoided += o.DuplicatePullsAvoided
	c.PredicatesEvaluated += o.PredicatesEvaluated
	c.PlanCacheHits += o.PlanCacheHits
	c.FleetPlans += o.FleetPlans
	c.FleetPlanReuses += o.FleetPlanReuses
	c.FleetPlannedExecutions += o.FleetPlannedExecutions
	c.FleetPlanIncremental += o.FleetPlanIncremental
	c.PlanNanos += o.PlanNanos
	c.FleetPlacedClasses += o.FleetPlacedClasses
	c.FleetExpectedCost += o.FleetExpectedCost
	c.IndependentExpectedCost += o.IndependentExpectedCost
	c.DistinctShapes += o.DistinctShapes
	c.ShapeSubscribers += o.ShapeSubscribers
	c.SharedExecutions += o.SharedExecutions
	c.PredicateDetectorTrips += o.PredicateDetectorTrips
	c.CostDetectorTrips += o.CostDetectorTrips
	c.ReplansForced += o.ReplansForced
	c.TrackedPredicates += o.TrackedPredicates
	c.TraceEvictions += o.TraceEvictions
	c.CacheRequested += o.CacheRequested
	c.CacheTransferred += o.CacheTransferred
	c.RelayHits += o.RelayHits
	c.RelaySavedSpend += o.RelaySavedSpend
	c.RelayPurchases += o.RelayPurchases
	c.RelayTransferSpend += o.RelayTransferSpend
}

// Metrics aggregates the whole fleet.
type Metrics struct {
	// Ticks is the number of time steps processed.
	Ticks int64 `json:"ticks"`
	// Queries is the number of currently registered queries.
	Queries int `json:"queries"`
	Counters
	// RealizedOverExpected is PaidCost / ExpectedCost: how the fleet's
	// realized acquisition spend compares to the planners' models (< 1 is
	// the shared-cache dividend). PlanCacheHitRate is PlanCacheHits /
	// Executions. FleetModelledSaving is 1 - FleetExpectedCost /
	// IndependentExpectedCost, the modelled dividend of planning the fleet
	// as one workload. CacheHitRate is the fraction of requested items
	// served without paying. setRatios derives all four.
	RealizedOverExpected float64 `json:"realized_over_expected"`
	PlanCacheHitRate     float64 `json:"plan_cache_hit_rate"`
	FleetModelledSaving  float64 `json:"fleet_modelled_saving"`
	CacheHitRate         float64 `json:"cache_hit_rate"`
	// ShapeFactoring is always true: cross-tenant shape factoring is
	// unconditional (the field stays for existing readers).
	ShapeFactoring bool `json:"shape_factoring"`
	// Estimator is always "windowed", the online adaptive estimator (see
	// internal/adapt), and EstimatorWindow its sliding-window size; both
	// stay for existing readers.
	Estimator       string `json:"estimator"`
	EstimatorWindow int    `json:"estimator_window,omitempty"`
	// AvgCIWidth is the mean confidence-interval width over tracked
	// predicates — the fleet's evidence gauge (small = estimates are
	// well-backed; 1 = no evidence).
	AvgCIWidth float64 `json:"avg_ci_width,omitempty"`
	// TickLatency is the per-phase tick-latency picture (phase name ->
	// histogram snapshot with p50/p90/p99 estimates; see internal/obs).
	// On a plain service it is the service's own latency; the sharded
	// runtime merges every worker's histograms bucket-by-bucket, so the
	// quantiles are fleet-wide.
	TickLatency obs.LatencySnapshot `json:"tick_latency,omitempty"`
	// PerStream breaks acquisition traffic down by stream, by registry
	// index (see StreamMetrics). Per-query aggregates are not part of the
	// fleet snapshot: read them per id with Runtime.QueryMetrics.
	PerStream []StreamMetrics `json:"per_stream"`

	// Shards is the number of shard workers (0 on a plain unsharded
	// Service, >= 1 under the sharded runtime; see NewSharded). The
	// remaining fields are populated only when Shards > 1.
	Shards int `json:"shards,omitempty"`
	// Repartitions counts partitioner runs (registrations place
	// incrementally; this counts full re-partitions) and QueriesMoved
	// the queries they moved between shards.
	Repartitions int64 `json:"repartitions,omitempty"`
	QueriesMoved int64 `json:"queries_moved,omitempty"`
	// ShardJointExpectedCost sums the per-shard joint plan costs of the
	// current placement (sharing only inside each shard);
	// SingleJointExpectedCost is the K=1 joint cost of the same fleet.
	// SharingLostPct is their relative gap — the modelled sharing lost
	// to partitioning (see shard.SharingLoss).
	ShardJointExpectedCost  float64 `json:"shard_joint_expected_cost,omitempty"`
	SingleJointExpectedCost float64 `json:"single_joint_expected_cost,omitempty"`
	SharingLostPct          float64 `json:"sharing_lost_pct,omitempty"`
	// CrossShardDuplicateTransfers / CrossShardDuplicateSpend are the
	// realized counterparts: items transferred by a shard cache that
	// another shard's cache had already paid for, and what those
	// re-acquisitions cost (see acquisition.Ledger). With a relay the
	// duplicates are still counted, but their spend is transfer cost.
	CrossShardDuplicateTransfers int64   `json:"cross_shard_duplicate_transfers,omitempty"`
	CrossShardDuplicateSpend     float64 `json:"cross_shard_duplicate_spend,omitempty"`
	// RelayEnabled reports a fleet-global L2 relay across the shard
	// caches and RelayTransferFrac its per-item transfer cost as a
	// fraction of acquisition cost (see acquisition.ItemRelay).
	RelayEnabled      bool    `json:"relay_enabled,omitempty"`
	RelayTransferFrac float64 `json:"relay_transfer_frac,omitempty"`
	// RelayJointExpectedCost prices the current placement with the relay:
	// cross-shard duplicated expected spend paid at RelayTransferFrac
	// instead of in full; SharingLostPctRelay is the corresponding
	// modelled sharing loss (RelayTransferFrac * SharingLostPct — what
	// the relay does not recover; see shard.Loss.WithRelay).
	RelayJointExpectedCost float64 `json:"relay_joint_expected_cost,omitempty"`
	SharingLostPctRelay    float64 `json:"sharing_lost_pct_relay,omitempty"`
	// PerShard breaks the fleet down by shard worker.
	PerShard []ShardSummary `json:"per_shard,omitempty"`

	// Admission is the admission controller's backpressure snapshot —
	// overload verdict, decision census, tenant budgets (see
	// internal/admit). Nil when the runtime is not behind an
	// AdmissionGate, so admission off leaves the metrics payload
	// byte-identical to the ungated service.
	Admission *admit.Metrics `json:"admission,omitempty"`
}

// ShardSummary is one shard worker's slice of the sharded runtime's
// metrics.
type ShardSummary struct {
	// Shard is the worker index.
	Shard int `json:"shard"`
	// Queries is the number of queries currently placed on the shard;
	// ExpectedLoad their summed expected independent-plan cost (the
	// partitioner's balance currency).
	Queries      int     `json:"queries"`
	ExpectedLoad float64 `json:"expected_load"`
	// Executions, PaidCost, CacheTransferred and CacheHitRate are the
	// shard's share of the fleet aggregates.
	Executions       int64   `json:"executions"`
	PaidCost         float64 `json:"paid_cost"`
	CacheTransferred int64   `json:"cache_transferred"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	// TickLatency is the shard's total-phase tick-latency histogram (nil
	// when the worker reports no latency data).
	TickLatency *obs.HistSnapshot `json:"tick_latency,omitempty"`
}

// Runtime is the serving surface shared by the single-process Service
// and the sharded runtime (see NewSharded): everything a front-end needs
// to register queries, advance time and read results and metrics,
// independent of how execution is partitioned.
type Runtime interface {
	Register(id, text string, opts ...QueryOption) error
	// QuoteRegister prices a registration's marginal joint cost without
	// performing it — the read-only front half of admission control (see
	// Quote and fleet.Planner.Quote).
	QuoteRegister(id, text string, opts ...QueryOption) (Quote, error)
	Unregister(id string) error
	QueryIDs() []string
	Tick() TickResult
	Run(n int) []TickResult
	Results(id string, n int) ([]Execution, error)
	QueryMetrics(id string) (QueryMetrics, error)
	Metrics() Metrics
	// Journal exposes the runtime's event journal (drift trips, forced
	// replans, repartitions, relay publishes, estimator evictions) and
	// TickTraces the sampled tick traces; SetTraceSampling changes the
	// tracer's period at runtime (n <= 0 disables). See internal/obs.
	Journal() *obs.Journal
	TickTraces(tick int64) []obs.TickTrace
	TraceTicks() []int64
	SetTraceSampling(n int)
	TraceSampling() int
}

// StreamMetrics reports one stream's share of the shared acquisition
// cache's traffic — the per-stream contention and sharing picture that
// fleet-wide aggregates hide.
type StreamMetrics struct {
	// Stream is the registry index; Name the stream's source name.
	Stream int    `json:"stream"`
	Name   string `json:"name"`
	// Requested counts items of this stream asked for by executions;
	// Transferred every item actually acquired from it (on-demand misses
	// and batched prefetches alike); HitRate the fraction of requests
	// served without a same-call transfer (prefetched items count
	// against it, so it measures cross-query sharing).
	Requested   int64   `json:"requested"`
	Transferred int64   `json:"transferred"`
	HitRate     float64 `json:"hit_rate"`
	// Spent is the acquisition cost paid for the stream.
	Spent float64 `json:"spent"`
	// DuplicatePullsAvoided is this stream's share of the tick batcher's
	// coalesced duplicate pulls (see Metrics.DuplicatePullsAvoided).
	DuplicatePullsAvoided int64 `json:"duplicate_pulls_avoided"`
	// LearnedCostPerItem is the online estimator's per-item cost EWMA for
	// the stream (0 until an acquisition has been observed) — the C
	// planners actually price with.
	LearnedCostPerItem float64 `json:"learned_cost_per_item,omitempty"`
	// CostDetectorTrips counts price-regime shifts detected on the
	// stream.
	CostDetectorTrips int64 `json:"cost_detector_trips,omitempty"`
	// RelayHits counts this stream's transfers served from the fleet L2
	// relay; RelaySavedSpend the acquisition cost they avoided net of
	// transfer prices (zero without a relay).
	RelayHits       int64   `json:"relay_hits,omitempty"`
	RelaySavedSpend float64 `json:"relay_saved_spend,omitempty"`
}

// Metrics returns a fleet-wide snapshot.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.ctr
	// Batched acquisitions are paid by the fleet on the queries' behalf:
	// include them so PaidCost is everything the cache spent.
	c.PaidCost += c.BatchedCost
	st := s.cache.Stats()
	c.CacheRequested, c.CacheTransferred = st.Requested, st.Transferred
	c.DistinctShapes = len(s.classList)
	for _, cl := range s.classList {
		c.ShapeSubscribers += len(cl.members)
	}
	c.PredicateDetectorTrips, c.CostDetectorTrips = s.ad.Trips()
	c.TrackedPredicates = s.ad.Len()
	c.TraceEvictions = s.ad.Evictions()
	m := Metrics{
		Ticks:           s.tick,
		Queries:         len(s.queries),
		ShapeFactoring:  true,
		Estimator:       s.ad.Name(),
		EstimatorWindow: s.ad.Window(),
		AvgCIWidth:      s.ad.AvgCIWidth(),
	}
	learned := map[int]adapt.StreamCostState{}
	for _, cs := range s.ad.StreamCosts() {
		learned[cs.Stream] = cs
	}
	for _, ss := range s.cache.PerStream() {
		m.PerStream = append(m.PerStream, StreamMetrics{
			Stream:                ss.Stream,
			Name:                  ss.Name,
			Requested:             ss.Requested,
			Transferred:           ss.Transferred,
			HitRate:               ss.HitRate,
			Spent:                 ss.Spent,
			DuplicatePullsAvoided: s.dupAvoidedK[ss.Stream],
			LearnedCostPerItem:    learned[ss.Stream].PerItem,
			CostDetectorTrips:     learned[ss.Stream].Trips,
			RelayHits:             ss.RelayHits,
			RelaySavedSpend:       ss.RelaySaved,
		})
		c.RelayHits += ss.RelayHits
		c.RelaySavedSpend += ss.RelaySaved
	}
	m.Counters = c
	m.setRatios()
	m.TickLatency = s.hists.Snapshot()
	return m
}

// setRatios derives the fleet ratios from the counters (zero while a
// denominator is). Both runtimes call it on their final counters, so
// each ratio has one formula.
func (m *Metrics) setRatios() {
	if m.ExpectedCost > 0 {
		m.RealizedOverExpected = m.PaidCost / m.ExpectedCost
	}
	if m.Executions > 0 {
		m.PlanCacheHitRate = float64(m.PlanCacheHits) / float64(m.Executions)
	}
	if m.IndependentExpectedCost > 0 {
		m.FleetModelledSaving = 1 - m.FleetExpectedCost/m.IndependentExpectedCost
	}
	if m.CacheRequested > 0 {
		m.CacheHitRate = 1 - float64(m.CacheTransferred)/float64(m.CacheRequested)
	}
}
