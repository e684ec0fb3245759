// Sharded is the horizontal scale-out of the scheduling service: a
// coordinator owning the shard partitioner, the fleet-global L2 item
// relay and the aggregated metrics, over K shard workers — each a full
// Service with its own L1 acquisition cache, fleet planner and windowed
// estimator — ticking asynchronously. Workers are in-process by
// default (NewSharded) or separate `paotrserve -worker` processes driven
// over HTTP/JSON (NewShardedRemote; see remote.go): the coordinator sees
// both through the Worker interface.
//
// Sharding trades sharing for parallelism: the paper's premium comes
// from items acquired once and reused by every query (Proposition 2),
// and a private per-shard cache only shares within its shard. The
// partitioner therefore co-locates queries by expected stream overlap,
// and the runtime measures what partitioning costs — the modelled
// per-shard joint cost against the K=1 joint cost, and the realized
// cross-shard duplicate transfers via a fleet-wide acquisition ledger.
//
// The fleet-global relay (WithRelay) recovers most of that loss: on an
// L1 miss a worker's cache consults the relay index, and an item some
// other shard already purchased is transferred at a configured fraction
// of its acquisition cost instead of re-acquired (see
// acquisition.ItemRelay). The partitioner's placement objective gains
// the matching transfer-cost term (shard.Config.RelayFrac), and the
// coordinator prices streams shared across shards at the
// relay-discounted blend for every worker's joint planner
// (Service.SetStreamCostScale). Without WithRelay nothing changes: the
// runtime stays byte-identical to the relay-less service.
//
// Plan caches are naturally scoped per shard: every worker has its own
// engine, so detector trips in one shard evict only that shard's plans,
// and a query moved between shards re-plans in its new home (its
// windowed estimator evidence migrates with it; see
// adapt.Windowed.ExportPredicates).
//
// With one shard the runtime degenerates to the plain Service — every
// call delegates to the single worker, so plans, results and costs are
// byte-identical to an unsharded service built with the same options.
package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"paotr/internal/acquisition"
	"paotr/internal/adapt"
	"paotr/internal/engine"
	"paotr/internal/obs"
	"paotr/internal/shard"
	"paotr/internal/stream"
)

// shardedQuery remembers what Register was called with, so a
// repartition can re-register the query on its new shard.
type shardedQuery struct {
	text string
	opts []QueryOption
}

// Sharded runs K shard workers over one stream registry. All methods
// are safe for concurrent use. It implements Runtime.
type Sharded struct {
	mu  sync.Mutex
	reg *stream.Registry
	// eng is the coordinator's neutral engine: prior probabilities, static
	// stream costs and no executions of its own. Placement compiles on it
	// (see placeLocked).
	eng     *engine.Engine
	workers []Worker
	// locals holds the in-process *Service behind each worker (nil
	// entries for remote workers), for tests and direct inspection.
	locals []*Service
	ledger *acquisition.Ledger // nil with one shard
	// relay is the fleet-global L2 item index (nil unless WithRelay with
	// a positive fraction and k > 1); relayFrac its transfer fraction.
	relay     *acquisition.ItemRelay
	relayFrac float64
	k         int
	// repartEvery comes from WithRepartitionEvery.
	repartEvery int64

	assign   map[string]int
	regOrder []string
	regInfo  map[string]*shardedQuery
	// shapeOf maps each query id to its shape key and classShard each live
	// shape to the shard it lives on: shape twins are always co-located (a
	// split class would execute once per holding shard, defeating the
	// factoring), so a twin of a placed shape skips the partitioner
	// entirely and repartitions move shapes as units. classSize counts
	// each shape's members.
	shapeOf    map[string]string
	classShard map[string]int
	classSize  map[string]int

	tick          int64
	lastRepart    int64
	tripsAtRepart int64
	// tickNow mirrors tick for the relay publish hook, which fires from
	// worker tick goroutines while sh.mu is held by Tick.
	tickNow atomic.Int64
	// journal and tracer are shared with every in-process worker (via
	// WithJournal/WithTracer), so coordinator events — repartitions,
	// relay first-publishes — interleave with the workers' drift trips
	// on one timeline, and a sampled tick yields one trace per shard.
	// Remote workers keep their own process-local journals.
	journal *obs.Journal
	tracer  *obs.Tracer

	repartitions int64
	moved        int64
	// loss/loads describe the current placement; lossDirty defers the
	// (joint-planning-heavy) re-pricing to the next Metrics call or
	// repartition instead of paying it on every Register/Unregister.
	loss      shard.Loss
	loads     []float64
	lossDirty bool
	// scalesDirty defers recomputing the relay-discounted per-stream cost
	// scales to the next tick after the query set changed.
	scalesDirty bool
}

var _ Runtime = (*Sharded)(nil)
var _ Runtime = (*Service)(nil)

// NewSharded creates a sharded runtime with k in-process shard workers,
// each a Service built over the shared registry with the same options.
// k <= 1 yields a single worker the runtime transparently delegates to.
// Live re-partitioning on estimator drift is off unless
// WithRepartitionEvery is given; the fleet-global item relay is off
// unless WithRelay is given.
func NewSharded(reg *stream.Registry, k int, opts ...Option) *Sharded {
	if k < 1 {
		k = 1
	}
	// Re-parse the options for the sharded-runtime knobs; the per-shard
	// services parse them again themselves.
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	sh := newShardedShell(reg, k, cfg)
	// Workers share the coordinator's journal and tracer: one fleet
	// timeline, one trace ring with one entry per shard per sampled tick.
	opts = append(append([]Option(nil), opts...), WithJournal(sh.journal), WithTracer(sh.tracer))
	if k > 1 {
		sh.ledger = acquisition.NewLedger(reg.Len())
		opts = append(opts, WithSharedLedger(sh.ledger))
		if sh.relay != nil {
			opts = append(opts, WithSharedRelay(sh.relay))
		}
	}
	sh.workers = make([]Worker, k)
	sh.locals = make([]*Service, k)
	for i := range sh.workers {
		workerOpts := append(append([]Option(nil), opts...), WithShardIndex(i))
		svc := New(reg, workerOpts...)
		sh.locals[i] = svc
		sh.workers[i] = svc
	}
	return sh
}

// newShardedShell builds the coordinator state shared by the in-process
// and remote constructors: everything but the workers.
func newShardedShell(reg *stream.Registry, k int, cfg config) *Sharded {
	sh := &Sharded{
		reg:         reg,
		eng:         engine.New(reg),
		k:           k,
		repartEvery: cfg.repartEvery,
		assign:      map[string]int{},
		regInfo:     map[string]*shardedQuery{},
		shapeOf:     map[string]string{},
		classShard:  map[string]int{},
		classSize:   map[string]int{},
		loads:       make([]float64, k),
		journal:     cfg.journal,
		tracer:      cfg.tracer,
	}
	if sh.journal == nil {
		sh.journal = obs.NewJournal(0)
	}
	if sh.tracer == nil {
		sh.tracer = obs.NewTracer(0)
	}
	if cfg.traceSample > 0 {
		sh.tracer.SetSample(cfg.traceSample)
	}
	if k > 1 && cfg.relayFrac > 0 {
		sh.relay = acquisition.NewItemRelay(reg.Len(), cfg.relayFrac)
		sh.relayFrac = sh.relay.TransferFrac()
		// No per-event formatting: first publishes fire once per unique
		// item fleet-wide, and the hook runs under the relay's lock.
		sh.relay.SetPublishHook(func(stream int, seq int64, cost float64) {
			sh.journal.Append(obs.Event{Type: obs.EventRelayPublish, Tick: sh.tickNow.Load(),
				Stream: stream, Count: 1, Before: cost, Detail: "item first published at full cost"})
		})
	}
	return sh
}

// Journal returns the fleet's shared event journal: coordinator events
// (repartitions, relay first-publishes) interleaved with every
// in-process worker's drift trips and forced replans.
func (sh *Sharded) Journal() *obs.Journal { return sh.journal }

// TickTraces returns every shard's retained trace of the given tick
// (one per in-process worker when the tick was sampled; see
// SetTraceSampling).
func (sh *Sharded) TickTraces(tick int64) []obs.TickTrace { return sh.tracer.ForTick(tick) }

// SetTraceSampling sets the shared tick tracer's sampling period for
// every in-process worker (n <= 0 disables).
func (sh *Sharded) SetTraceSampling(n int) { sh.tracer.SetSample(n) }

// TraceSampling returns the current tick-trace sampling period.
func (sh *Sharded) TraceSampling() int { return sh.tracer.Sampling() }

// TraceTicks lists the distinct sampled ticks still retained by the
// shared tracer's ring, oldest first.
func (sh *Sharded) TraceTicks() []int64 { return sh.tracer.Ticks() }

// Shards returns the number of shard workers.
func (sh *Sharded) Shards() int { return sh.k }

// Shard exposes in-process shard worker i (e.g. for estimator inspection
// in tests); nil when worker i is remote.
func (sh *Sharded) Shard(i int) *Service { return sh.locals[i] }

// shardConfig is the partitioner configuration of this runtime.
func (sh *Sharded) shardConfig() shard.Config {
	return shard.Config{Shards: sh.k, RelayFrac: sh.relayFrac}
}

// tripsNowLocked totals detector trips across workers — the drift
// evidence the repartition trigger compares against. Caller holds sh.mu.
func (sh *Sharded) tripsNowLocked() int64 {
	var t int64
	for _, w := range sh.workers {
		t += w.Trips()
	}
	return t
}

// profilesLocked profiles every registered query from its owning shard's
// learned estimators, in registration order. Caller holds sh.mu.
func (sh *Sharded) profilesLocked() []shard.Query {
	out := make([]shard.Query, 0, len(sh.regOrder))
	for _, id := range sh.regOrder {
		t, _, ok := sh.workers[sh.assign[id]].ProfileTree(id)
		if !ok {
			continue
		}
		out = append(out, shard.Profile(id, t))
	}
	return out
}

// recomputeLossLocked re-prices the current placement: per-shard joint
// costs against the K=1 joint baseline, and per-shard expected loads.
// Caller holds sh.mu.
func (sh *Sharded) recomputeLossLocked(profiles []shard.Query) {
	if profiles == nil {
		profiles = sh.profilesLocked()
	}
	sh.loss = shard.SharingLoss(sh.dedupByClassLocked(profiles), sh.assign, sh.k)
	loads := make([]float64, sh.k)
	for _, p := range profiles {
		loads[sh.assign[p.ID]] += p.Load
	}
	sh.loads = loads
	sh.lossDirty = false
}

// dedupByClassLocked keeps one profile per resident shape class — the
// first member standing for every subscriber. Twins co-locate with
// their class and an identical tree adds zero marginal joint cost, so
// sharing-loss pricing over class representatives matches per-query
// pricing while the planning work scales with distinct shapes instead
// of fleet size (a 100k-query storm over 20 templates prices 20 trees,
// not 100k). Caller holds sh.mu.
func (sh *Sharded) dedupByClassLocked(profiles []shard.Query) []shard.Query {
	seen := make(map[string]bool, len(sh.classSize))
	out := profiles[:0:0]
	for _, p := range profiles {
		ck := sh.shapeOf[p.ID]
		if seen[ck] {
			continue
		}
		seen[ck] = true
		out = append(out, p)
	}
	return out
}

// refreshLossLocked re-prices the placement if it changed since the
// last pricing. Caller holds sh.mu.
func (sh *Sharded) refreshLossLocked() {
	if sh.lossDirty {
		sh.recomputeLossLocked(nil)
	}
}

// updateRelayScalesLocked recomputes the relay-discounted per-stream
// cost scales and installs them on every worker's joint planner: a
// stream whose expected demand spans m > 1 shards is priced at the blend
// (1 + (m-1)*frac) / m of its acquisition cost — one shard purchases at
// full price, the rest relay at frac. Streams used by at most one shard
// keep scale 1. No-op without a relay. Caller holds sh.mu.
func (sh *Sharded) updateRelayScalesLocked(profiles []shard.Query) {
	if sh.relay == nil {
		return
	}
	if profiles == nil {
		profiles = sh.profilesLocked()
	}
	n := sh.reg.Len()
	uses := make([]bool, n*sh.k)
	sharers := make([]int, n)
	for _, p := range profiles {
		s := sh.assign[p.ID]
		for k, w := range p.Weights {
			if w > 0 && k < n && !uses[k*sh.k+s] {
				uses[k*sh.k+s] = true
				sharers[k]++
			}
		}
	}
	scale := make([]float64, n)
	for k := range scale {
		if m := sharers[k]; m > 1 {
			scale[k] = (1 + float64(m-1)*sh.relayFrac) / float64(m)
		} else {
			scale[k] = 1
		}
	}
	for _, w := range sh.workers {
		w.SetStreamCostScale(scale)
	}
	sh.scalesDirty = false
}

// unplaced asks placeLocked to choose a new query's shard.
const unplaced = -1

// placement is where placeLocked puts a query: its shard, its shape key
// and the query compiled on the coordinator's neutral engine.
type placement struct {
	to    int
	shape string
	q     *engine.Query
}

// placeLocked is the coordinator's one placement path, shared by
// Register, QuoteRegister and remote-worker adoption. It compiles the
// query on the neutral engine and keys it by Query.ShapeKey alone: a
// query whose shape is already placed joins that shape's shard. Workers
// still split a shape's queries into classes by executor, so co-locating
// by shape never splits a class. at is the shard an adopted query
// already lives on, or unplaced. A new shape goes where shard.PlaceOne
// puts it, profiled at prior probabilities and static costs: it has no
// evidence of its own yet, and no shard's evidence should leak into its
// price. Caller holds sh.mu.
func (sh *Sharded) placeLocked(id, text string, at int) (placement, error) {
	q, err := sh.eng.Compile(text)
	if err != nil {
		return placement{}, fmt.Errorf("service: compiling %q: %w", id, err)
	}
	p := placement{to: at, shape: q.ShapeKey(), q: q}
	if at != unplaced {
		return p, nil
	}
	owner, placed := sh.classShard[p.shape]
	if !placed && sh.k > 1 {
		owner = shard.PlaceOne(shard.Profile(id, q.Tree()), sh.profilesLocked(), sh.assign, sh.shardConfig())
	}
	p.to = owner
	return p, nil
}

// addLocked records a query registered on shard p.to. Caller holds sh.mu.
func (sh *Sharded) addLocked(id, text string, opts []QueryOption, p placement) {
	sh.assign[id] = p.to
	sh.regOrder = append(sh.regOrder, id)
	sh.regInfo[id] = &shardedQuery{text: text, opts: opts}
	sh.shapeOf[id] = p.shape
	sh.classSize[p.shape]++
	sh.classShard[p.shape] = p.to
	sh.lossDirty = true
	sh.scalesDirty = true
}

// Register places the query (see placeLocked) and registers it on its
// shard. Other existing queries stay put — full repartitions happen on
// Repartition or on estimator drift.
func (sh *Sharded) Register(id, text string, opts ...QueryOption) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.assign[id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	p, err := sh.placeLocked(id, text, unplaced)
	if err != nil {
		return err
	}
	if err := sh.workers[p.to].Register(id, text, opts...); err != nil {
		return err
	}
	sh.addLocked(id, text, opts, p)
	return nil
}

// Unregister removes the query from its owning shard.
func (sh *Sharded) Unregister(id string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	owner, ok := sh.assign[id]
	if !ok {
		return fmt.Errorf("service: unknown query id %q", id)
	}
	if err := sh.workers[owner].Unregister(id); err != nil {
		return err
	}
	delete(sh.assign, id)
	delete(sh.regInfo, id)
	for i, o := range sh.regOrder {
		if o == id {
			sh.regOrder = append(sh.regOrder[:i], sh.regOrder[i+1:]...)
			break
		}
	}
	ck := sh.shapeOf[id]
	delete(sh.shapeOf, id)
	if sh.classSize[ck]--; sh.classSize[ck] <= 0 {
		// Last subscriber gone: the shape releases its shard claim.
		delete(sh.classSize, ck)
		delete(sh.classShard, ck)
	}
	sh.lossDirty = true
	sh.scalesDirty = true
	return nil
}

// QueryIDs lists registered query ids in registration order.
func (sh *Sharded) QueryIDs() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]string(nil), sh.regOrder...)
}

// Assignment returns the current query -> shard placement.
func (sh *Sharded) Assignment() map[string]int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[string]int, len(sh.assign))
	for id, s := range sh.assign {
		out[id] = s
	}
	return out
}

// Repartition re-runs the partitioner over the whole fleet with the
// current learned estimators and moves queries whose shard changed. A
// moved query's windowed predicate evidence migrates to its new shard's
// estimator; its plan caches stay behind (per-shard engines scope them)
// and rebuild on the next tick. Returns how many queries moved.
func (sh *Sharded) Repartition() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.repartitionLocked()
}

func (sh *Sharded) repartitionLocked() int {
	sh.repartitions++
	// A repartition consumes the drift evidence seen so far: the drift
	// trigger only fires again after new trips (whether this run was
	// manual or trip-driven).
	sh.lastRepart = sh.tick
	sh.tripsAtRepart = sh.tripsNowLocked()
	if sh.k == 1 {
		return 0
	}
	profiles := sh.profilesLocked()
	// Collapse the fleet to one profile per shape before partitioning:
	// under factoring a class executes once per tick wherever it lives,
	// so the representative's own load is the class's honest load, and
	// placing shapes instead of queries guarantees twins are never split.
	repOf := map[string]string{}
	classProfiles := make([]shard.Query, 0, len(profiles))
	for _, p := range profiles {
		ck := sh.shapeOf[p.ID]
		if _, seen := repOf[ck]; seen {
			continue
		}
		repOf[ck] = p.ID
		classProfiles = append(classProfiles, p)
	}
	next := shard.Partition(classProfiles, sh.shardConfig())
	moved := 0
	evidenceDone := map[string]bool{}
	for _, p := range profiles {
		ck := sh.shapeOf[p.ID]
		to := next.Shard[repOf[ck]]
		sh.classShard[ck] = to
		from := sh.assign[p.ID]
		if from == to {
			continue
		}
		// The class's estimator evidence migrates once — twins share the
		// same predicate trace keys, so the first moved member carries it
		// for the whole class.
		withEvidence := !evidenceDone[ck]
		evidenceDone[ck] = true
		sh.moveLocked(p.ID, from, to, withEvidence)
		sh.assign[p.ID] = to
		moved++
	}
	sh.moved += int64(moved)
	sh.recomputeLossLocked(profiles)
	sh.updateRelayScalesLocked(profiles)
	sh.journal.Append(obs.Event{Type: obs.EventRepartition, Tick: sh.tick,
		Count: moved, Detail: "partitioner re-run over the whole fleet"})
	return moved
}

// moveLocked transfers one query between shards: estimator evidence is
// exported from the source shard, the query is re-registered on the
// destination, and the evidence imported so the new shard's planner
// prices it with learned probabilities instead of the prior.
// withEvidence false skips the export/import — a class move migrates
// evidence through its first member only, since twins share the same
// predicate trace keys. Caller holds sh.mu.
func (sh *Sharded) moveLocked(id string, from, to int, withEvidence bool) {
	src, dst := sh.workers[from], sh.workers[to]
	info := sh.regInfo[id]
	var snaps []adapt.PredicateSnapshot
	if withEvidence {
		if _, keys, ok := src.ProfileTree(id); ok {
			snaps = src.ExportEvidence(keys)
		}
	}
	// Unregister cannot fail (the id is registered) and Register cannot
	// fail either (the same text compiled when the query first arrived,
	// and the id was just freed).
	_ = src.Unregister(id)
	if len(snaps) > 0 {
		dst.ImportEvidence(snaps)
	}
	_ = dst.Register(id, info.text, info.opts...)
}

// maybeRepartitionLocked runs the drift trigger: when enabled and due,
// a tick that observes detector trips since the last repartition re-runs
// the partitioner — shifted probabilities and learned per-stream costs
// change both the affinity weights and the loads. Caller holds sh.mu.
func (sh *Sharded) maybeRepartitionLocked() {
	if sh.repartEvery <= 0 || sh.k == 1 {
		return
	}
	if sh.tick-sh.lastRepart < sh.repartEvery {
		return
	}
	if sh.tripsNowLocked() == sh.tripsAtRepart {
		return
	}
	sh.repartitionLocked()
}

// Tick advances every shard worker by one step. Shards tick
// concurrently — each against its own cache, planner and estimator — and
// the result concatenates their executions in shard order, each shard's
// in its own registration order, tagged with the shard that ran it. With
// one shard this is exactly Service.Tick.
func (sh *Sharded) Tick() TickResult {
	if sh.k == 1 {
		return sh.workers[0].Tick()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.tick++
	sh.tickNow.Store(sh.tick)
	sh.maybeRepartitionLocked()
	if sh.scalesDirty {
		sh.updateRelayScalesLocked(nil)
	}
	results := make([]TickResult, sh.k)
	var wg sync.WaitGroup
	for i := range sh.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sh.workers[i].Tick()
		}(i)
	}
	wg.Wait()
	// Executions arrive already stamped with their shard and the shared
	// tick (every worker ticks once per Sharded.Tick).
	n := 0
	for _, tr := range results {
		n += len(tr.Executions)
	}
	out := TickResult{Tick: sh.tick, Executions: make([]Execution, 0, n)}
	for _, tr := range results {
		out.Executions = append(out.Executions, tr.Executions...)
	}
	return out
}

// Run executes n consecutive ticks and returns their results.
func (sh *Sharded) Run(n int) []TickResult {
	out := make([]TickResult, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sh.Tick())
	}
	return out
}

// Results returns the most recent executions of a query, oldest first.
// A query moved by a repartition restarts its history on its new shard.
func (sh *Sharded) Results(id string, n int) ([]Execution, error) {
	sh.mu.Lock()
	owner, ok := sh.assign[id]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown query id %q", id)
	}
	return sh.workers[owner].Results(id, n)
}

// QueryMetrics returns the per-query aggregates from the owning shard.
func (sh *Sharded) QueryMetrics(id string) (QueryMetrics, error) {
	sh.mu.Lock()
	owner, ok := sh.assign[id]
	sh.mu.Unlock()
	if !ok {
		return QueryMetrics{}, fmt.Errorf("service: unknown query id %q", id)
	}
	return sh.workers[owner].QueryMetrics(id)
}

// Metrics aggregates the whole fleet across shards: counters sum (see
// Counters.Add), per-stream traffic sums by registry index, ratios are
// derived from the summed counters, and the sharded runtime adds its
// own picture — per-shard summaries, the modelled sharing lost to
// partitioning, the realized cross-shard duplicate traffic from the
// fleet ledger, and the relay's recovered-sharing counters when enabled.
func (sh *Sharded) Metrics() Metrics {
	if sh.k == 1 {
		m := sh.workers[0].Metrics()
		m.Shards = 1
		return m
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.refreshLossLocked()
	per := make([]Metrics, sh.k)
	for i, w := range sh.workers {
		per[i] = w.Metrics()
	}
	m := Metrics{
		Ticks:          sh.tick,
		Queries:        len(sh.regOrder),
		ShapeFactoring: true,
		Shards:         sh.k,

		Repartitions:            sh.repartitions,
		QueriesMoved:            sh.moved,
		ShardJointExpectedCost:  sh.loss.JointK,
		SingleJointExpectedCost: sh.loss.JointOne,
		SharingLostPct:          sh.loss.LostPct,
	}
	perStream := make([]StreamMetrics, sh.reg.Len())
	for i, pm := range per {
		// Remote workers overlay their relay-mirror purchase counters on
		// their metrics (see remote.go); in-process workers leave them
		// zero and the coordinator's own relay supplies them below.
		m.Counters.Add(pm.Counters)
		// Each worker's CI width averages over its own estimator's
		// predicates; weight it by their count.
		m.AvgCIWidth += pm.AvgCIWidth * float64(pm.TrackedPredicates)
		m.Estimator = pm.Estimator
		m.EstimatorWindow = pm.EstimatorWindow
		for _, ps := range pm.PerStream {
			tot := &perStream[ps.Stream]
			tot.Stream = ps.Stream
			tot.Name = ps.Name
			tot.Requested += ps.Requested
			tot.Transferred += ps.Transferred
			tot.Spent += ps.Spent
			tot.DuplicatePullsAvoided += ps.DuplicatePullsAvoided
			tot.CostDetectorTrips += ps.CostDetectorTrips
			tot.RelayHits += ps.RelayHits
			tot.RelaySavedSpend += ps.RelaySavedSpend
			// Transfer-weighted mean of the shards' learned costs: the
			// shards learn independently from their own pulls.
			tot.LearnedCostPerItem += ps.LearnedCostPerItem * float64(ps.Transferred)
		}
		// Histograms merge exactly: bucket counts add, so the fleet-wide
		// quantiles are computed over every shard's observations. Remote
		// workers' snapshots arrive through their Metrics JSON.
		m.TickLatency = obs.MergeLatency(m.TickLatency, pm.TickLatency)
		load := 0.0
		if i < len(sh.loads) {
			load = sh.loads[i]
		}
		sum := ShardSummary{
			Shard:            i,
			Queries:          pm.Queries,
			ExpectedLoad:     load,
			Executions:       pm.Executions,
			PaidCost:         pm.PaidCost,
			CacheTransferred: pm.CacheTransferred,
			CacheHitRate:     pm.CacheHitRate,
		}
		if total, ok := pm.TickLatency[obs.PhaseNames[obs.PhaseTotal]]; ok {
			sum.TickLatency = &total
		}
		m.PerShard = append(m.PerShard, sum)
	}
	for k := range perStream {
		ps := &perStream[k]
		ps.Stream = k
		if ps.Name == "" {
			ps.Name = sh.reg.At(k).Source.Name()
		}
		if ps.Requested > 0 {
			ps.HitRate = 1 - float64(ps.Transferred)/float64(ps.Requested)
		}
		if ps.Transferred > 0 {
			ps.LearnedCostPerItem /= float64(ps.Transferred)
		}
	}
	m.PerStream = perStream
	if m.TrackedPredicates > 0 {
		m.AvgCIWidth /= float64(m.TrackedPredicates)
	}
	if sh.ledger != nil {
		ls := sh.ledger.Stats()
		m.CrossShardDuplicateTransfers = ls.DuplicateTransfers
		m.CrossShardDuplicateSpend = ls.DuplicateSpend
	}
	if sh.relay != nil {
		m.RelayEnabled = true
		m.RelayTransferFrac = sh.relayFrac
		rs := sh.relay.Stats()
		if rs.Purchases > 0 || rs.Hits > 0 {
			// In-process workers share this relay directly; remote workers
			// already reported their mirrors' counters above.
			m.RelayPurchases = rs.Purchases
			m.RelayTransferSpend = rs.TransferSpend
		}
		rl := sh.loss.WithRelay(sh.relayFrac)
		m.RelayJointExpectedCost = rl.RelayK
		m.SharingLostPctRelay = rl.RelayLostPct
	}
	m.setRatios()
	return m
}
