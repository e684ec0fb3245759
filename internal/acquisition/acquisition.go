// Package acquisition implements the device-side data item cache of the
// paper's pull model (Section I): acquired items are held in memory until
// they are no longer relevant — i.e. older than the maximum time window
// used for their stream in any registered query — and every leaf
// evaluation pays only for the items not already cached.
//
// A Cache is safe for concurrent use and can be shared by many queries:
// an item pulled for one query is reused for free by every other query
// that needs it, which is where the multi-query savings of the paper's
// shared-stream model come from. Per-query retention claims (Retain /
// Release) keep the per-stream horizon equal to the maximum window over
// all registered queries, recomputed whenever the query set changes.
//
// Internally every stream's items and traffic counters are guarded by
// that stream's own mutex, so concurrent pulls on different streams
// never contend. A top-level RWMutex covers the structural state (time,
// retention horizons): stream operations take it shared, while Advance /
// Retain / Release and the aggregate accessors take it exclusively.
package acquisition

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paotr/internal/stream"
)

// streamLock guards one stream's cached items and traffic counters
// (taken together with the cache's structural read lock); the cache's
// structural write lock excludes every stream lock holder.
type streamLock struct {
	mu sync.Mutex
	_  [56]byte // pad to a 64-byte cache line so stream locks do not false-share
}

// streamView is an immutable snapshot of the contiguous most-recent
// cached prefix of one stream: vals[t-1] is the value of the t-th most
// recent item as of time step now. Once published it is never mutated;
// Acquire serves warm hits straight from it without taking any lock.
type streamView struct {
	now  int64
	vals []float64
}

// Cache holds the most recent items pulled from each stream of a registry
// and accounts for acquisition costs. Items are identified by production
// step: at time now, the "t-th item" of the paper (t >= 1) is the one
// produced at step now-t. All methods are safe for concurrent use.
type Cache struct {
	// mu guards the structural state: now, base, claims, maxWindow.
	// Stream operations hold it shared plus the stream's lock; structural
	// operations hold it exclusively (which also excludes all
	// stream-locked readers, so they may touch every stream's data
	// without taking stream locks).
	mu  sync.RWMutex
	reg *stream.Registry
	// locks[k] guards the per-stream slices below at index k.
	locks []streamLock
	// items[k] = cached items of stream k, sorted by decreasing Seq
	// (most recent first). Not necessarily contiguous after Advance.
	items [][]stream.Item
	// base[k] = fixed retention horizon supplied at construction.
	base []int
	// claims holds per-query retention claims (Retain/Release).
	claims map[string][]int
	// maxWindow[k] = effective retention horizon: the elementwise max of
	// base and every claim. Items older than this relative age are
	// dropped (the paper's "no longer relevant" rule).
	maxWindow []int
	now       int64
	// nowA mirrors now for lock-free freshness checks: the warm-hit fast
	// path compares a view's stamp against it without taking mu.
	nowA atomic.Int64
	// views[k], when non-nil, is the published warm prefix of stream k.
	// Views are written under stream k's locks (and invalidated under the
	// structural write lock); they are read with a bare atomic load.
	views []atomic.Pointer[streamView]
	// Per-stream accounting, guarded like items: spent[k] is the cost
	// paid for stream k, pulls[k] the items transferred from it, and
	// requested/transferred count per-stream traffic (their ratio is the
	// per-stream cache hit rate). Fleet-wide totals are sums over k.
	// requested is atomic because the lock-free fast path bumps it.
	spent       []float64
	pulls       []int
	requested   []atomic.Int64
	transferred []int64
	// relayHits[k] counts transfers of stream k served from the fleet
	// relay instead of the stream; relaySaved[k] is the acquisition cost
	// those hits avoided net of the transfer price (so spent[k] +
	// relaySaved[k] is what the stream would have charged).
	relayHits  []int64
	relaySaved []float64
	// ledger, when set, additionally accounts every transfer to a
	// fleet-wide Ledger shared with other caches (see SetLedger); ledgerH
	// is this cache's clock handle there.
	ledger  *Ledger
	ledgerH int
	// relay, when set, is the fleet-global L2 item index consulted on
	// every L1 miss (see SetRelay); relayH is this cache's clock handle.
	relay  *ItemRelay
	relayH int
}

// NewCache creates a cache over the registry; maxWindow[k] is the fixed
// retention horizon of stream k (the maximum window any query leaf uses on
// that stream). Additional horizons can be claimed later with Retain.
func NewCache(reg *stream.Registry, maxWindow []int) (*Cache, error) {
	if len(maxWindow) != reg.Len() {
		return nil, fmt.Errorf("acquisition: %d horizons for %d streams", len(maxWindow), reg.Len())
	}
	return newCache(reg, maxWindow), nil
}

// NewShared creates a cache with no fixed horizons: retention is driven
// entirely by Retain/Release claims, the configuration of a multi-query
// service where the query set changes at runtime.
func NewShared(reg *stream.Registry) *Cache {
	return newCache(reg, make([]int, reg.Len()))
}

func newCache(reg *stream.Registry, maxWindow []int) *Cache {
	n := reg.Len()
	return &Cache{
		reg:         reg,
		locks:       make([]streamLock, n),
		items:       make([][]stream.Item, n),
		base:        append([]int(nil), maxWindow...),
		claims:      map[string][]int{},
		maxWindow:   append([]int(nil), maxWindow...),
		views:       make([]atomic.Pointer[streamView], n),
		spent:       make([]float64, n),
		pulls:       make([]int, n),
		requested:   make([]atomic.Int64, n),
		transferred: make([]int64, n),
		relayHits:   make([]int64, n),
		relaySaved:  make([]float64, n),
	}
}

// SetLedger attaches a fleet-wide transfer ledger: every item this cache
// transfers from now on is also recorded there, so duplicated traffic
// across caches (shard workers with private caches pulling the same
// item) becomes measurable. Attach before the cache sees traffic.
func (c *Cache) SetLedger(l *Ledger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ledger = l
	if l != nil {
		c.ledgerH = l.attach()
	}
}

// SetRelay attaches the fleet-global L2 item relay: from now on every L1
// miss consults it before the stream, transferring already-purchased
// items at the relay's transfer fraction of their acquisition cost
// instead of re-acquiring. Attach before the cache sees traffic; a nil
// relay (the default) leaves the pull path untouched.
func (c *Cache) SetRelay(r *ItemRelay) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.relay = r
	if r != nil {
		c.relayH = r.attach()
	}
}

// lockStream takes the structural read lock plus stream k's lock. The
// returned function releases both.
func (c *Cache) lockStream(k int) func() {
	c.mu.RLock()
	l := &c.locks[k].mu
	l.Lock()
	return func() {
		l.Unlock()
		c.mu.RUnlock()
	}
}

// Retain registers a per-query retention claim: windows[k] is the maximum
// window the query uses on stream k. The effective horizon of every
// stream becomes the maximum over the base horizon and all claims.
// Claiming again under the same id replaces the previous claim.
func (c *Cache) Retain(id string, windows []int) error {
	if len(windows) != c.reg.Len() {
		return fmt.Errorf("acquisition: %d horizons for %d streams", len(windows), c.reg.Len())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, replaces := c.claims[id]
	c.claims[id] = append([]int(nil), windows...)
	if !replaces {
		// A fresh claim can only raise horizons: nothing falls out of
		// retention, so skip the full O(claims) rebuild and eviction scan
		// (a registration storm would otherwise pay it once per query).
		for k, w := range windows {
			if w > c.maxWindow[k] {
				c.maxWindow[k] = w
			}
		}
		return nil
	}
	c.recomputeHorizons()
	return nil
}

// Release withdraws a retention claim. Items beyond the shrunken horizon
// are evicted immediately.
func (c *Cache) Release(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.claims, id)
	c.recomputeHorizons()
}

// recomputeHorizons rebuilds maxWindow from base and claims and evicts
// items that fell outside the new horizons. Caller holds mu exclusively.
func (c *Cache) recomputeHorizons() {
	for k := range c.maxWindow {
		c.maxWindow[k] = c.base[k]
		for _, w := range c.claims {
			if w[k] > c.maxWindow[k] {
				c.maxWindow[k] = w[k]
			}
		}
	}
	c.evictLocked()
}

// evictLocked drops items older than the retention horizon and retires
// every published warm view (ages shifted or horizons shrank, so a view
// could otherwise serve items the cache no longer holds as free). Caller
// holds mu exclusively (so no stream locks are needed).
func (c *Cache) evictLocked() {
	for k := range c.views {
		c.views[k].Store(nil)
	}
	for k := range c.items {
		kept := c.items[k][:0]
		for _, it := range c.items[k] {
			if age := c.now - it.Seq; age <= int64(c.maxWindow[k]) {
				kept = append(kept, it)
			}
		}
		c.items[k] = kept
	}
}

// Now returns the current time step.
func (c *Cache) Now() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Spent returns the total acquisition cost paid so far.
func (c *Cache) Spent() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, s := range c.spent {
		total += s
	}
	return total
}

// Pulls returns the number of items transferred from stream k.
func (c *Cache) Pulls(k int) int {
	unlock := c.lockStream(k)
	defer unlock()
	return c.pulls[k]
}

// Horizon returns the effective retention horizon of stream k.
func (c *Cache) Horizon(k int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.maxWindow[k]
}

// Stats summarizes cache traffic.
type Stats struct {
	// Requested counts items asked for via Pull/Acquire.
	Requested int64
	// Transferred counts the requested items that were not cached and had
	// to be acquired (and paid for).
	Transferred int64
	// Spent is the total acquisition cost paid.
	Spent float64
	// Now is the current time step.
	Now int64
}

// HitRate is the fraction of requested items served from the cache.
func (s Stats) HitRate() float64 {
	if s.Requested == 0 {
		return 0
	}
	return 1 - float64(s.Transferred)/float64(s.Requested)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Stats{Now: c.now}
	for k := range c.spent {
		out.Requested += c.requested[k].Load()
		out.Transferred += c.transferred[k]
		out.Spent += c.spent[k]
	}
	return out
}

// StreamStats summarizes cache traffic for one stream.
type StreamStats struct {
	// Stream is the registry index; Name its source name.
	Stream int    `json:"stream"`
	Name   string `json:"name"`
	// Requested counts items of this stream asked for via Pull/Acquire.
	// Transferred counts every item actually acquired from the stream —
	// on-demand misses and prefetches alike (a prefetched item's demand
	// is attributed to the readers that follow, so Transferred can
	// exceed Requested's misses).
	Requested   int64 `json:"requested"`
	Transferred int64 `json:"transferred"`
	// Spent is the acquisition cost paid for this stream.
	Spent float64 `json:"spent"`
	// HitRate is the fraction of requested items served without a
	// same-call transfer; prefetched items count against it, so it
	// measures cross-query sharing rather than prefetcher traffic.
	HitRate float64 `json:"hit_rate"`
	// RelayHits counts transfers served from the fleet L2 relay instead
	// of the stream; RelaySaved is the acquisition cost those hits
	// avoided net of the transfer price. Zero without an attached relay.
	RelayHits  int64   `json:"relay_hits,omitempty"`
	RelaySaved float64 `json:"relay_saved,omitempty"`
}

// StreamStats returns the traffic counters of stream k.
func (c *Cache) StreamStats(k int) StreamStats {
	unlock := c.lockStream(k)
	defer unlock()
	return c.streamStatsLocked(k)
}

func (c *Cache) streamStatsLocked(k int) StreamStats {
	s := StreamStats{
		Stream:      k,
		Name:        c.reg.At(k).Source.Name(),
		Requested:   c.requested[k].Load(),
		Transferred: c.transferred[k],
		Spent:       c.spent[k],
		RelayHits:   c.relayHits[k],
		RelaySaved:  c.relaySaved[k],
	}
	if s.Requested > 0 {
		s.HitRate = 1 - float64(s.Transferred)/float64(s.Requested)
	}
	return s
}

// PerStream returns the traffic counters of every stream, by registry
// index.
func (c *Cache) PerStream() []StreamStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]StreamStats, c.reg.Len())
	for k := range out {
		out[k] = c.streamStatsLocked(k)
	}
	return out
}

// Advance moves time forward by steps. Cached items age accordingly, and
// items older than the retention horizon are evicted.
func (c *Cache) Advance(steps int64) {
	if steps <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += steps
	c.nowA.Store(c.now)
	c.evictLocked()
	if c.ledger != nil {
		c.ledger.advance(c.ledgerH, c.now)
	}
	if c.relay != nil {
		c.relay.advance(c.relayH, c.now)
	}
}

// cached returns the cached item of stream k produced at step seq.
// Caller holds stream k's locks.
func (c *Cache) cached(k int, seq int64) (stream.Item, bool) {
	for _, it := range c.items[k] {
		if it.Seq == seq {
			return it, true
		}
		if it.Seq < seq {
			break // sorted descending
		}
	}
	return stream.Item{}, false
}

// Have returns how many consecutive most-recent items of stream k are
// cached: the largest t such that items 1..t are all in memory.
func (c *Cache) Have(k int) int {
	unlock := c.lockStream(k)
	defer unlock()
	n := 0
	for {
		if _, ok := c.cached(k, c.now-int64(n+1)); !ok {
			return n
		}
		n++
	}
}

// Missing returns how many of the d most recent items of stream k are not
// cached — the incremental item count a Pull(k, d) would transfer.
func (c *Cache) Missing(k, d int) int {
	unlock := c.lockStream(k)
	defer unlock()
	miss := 0
	for t := 1; t <= d; t++ {
		if _, ok := c.cached(k, c.now-int64(t)); !ok {
			miss++
		}
	}
	return miss
}

// pullLocked ensures the d most recent items of stream k are cached and
// returns the incremental cost paid. countRequested attributes the items
// to the request counter (false for prefetches, whose demand belongs to
// the readers that follow). Caller holds stream k's locks.
func (c *Cache) pullLocked(k, d int, countRequested bool) float64 {
	st := c.reg.At(k)
	cost := 0.0
	if countRequested {
		c.requested[k].Add(int64(d))
	}
	added := false
	for t := 1; t <= d; t++ {
		seq := c.now - int64(t)
		if _, ok := c.cached(k, seq); ok {
			continue
		}
		var it stream.Item
		var itemCost float64
		if c.relay != nil {
			// L2 path: a relay hit transfers the item another cache already
			// purchased at a fraction of its acquisition cost; a miss
			// acquires at full cost and publishes for the rest of the fleet.
			item, tc, full, relayed := c.relay.acquire(k, seq, d, st)
			it, itemCost = item, tc
			if relayed {
				c.relayHits[k]++
				c.relaySaved[k] += full - tc
			}
		} else {
			// Items are priced at their production step, so streams with a
			// dynamic cost regime charge the price in force when the item
			// was produced.
			it = st.Source.At(seq)
			itemCost = st.PerItemAt(seq)
		}
		c.items[k] = append(c.items[k], it)
		added = true
		cost += itemCost
		c.pulls[k]++
		c.transferred[k]++
		if c.ledger != nil {
			c.ledger.record(k, seq, itemCost, d)
		}
	}
	if added {
		sort.Slice(c.items[k], func(a, b int) bool { return c.items[k][a].Seq > c.items[k][b].Seq })
	}
	c.spent[k] += cost
	return cost
}

// Pull ensures the d most recent items of stream k are cached, transfers
// the missing ones, charges their cost, and returns the incremental cost
// paid.
func (c *Cache) Pull(k, d int) float64 {
	unlock := c.lockStream(k)
	defer unlock()
	return c.pullLocked(k, d, true)
}

// Prefetch is Pull on behalf of future readers: it transfers and charges
// for the missing items, but does not count them as requested — the
// demand is attributed to the queries that subsequently Acquire them, so
// Stats.HitRate keeps measuring cross-query sharing rather than the
// prefetcher's own traffic. It returns the items transferred and the
// cost paid.
func (c *Cache) Prefetch(k, d int) (int, float64) {
	unlock := c.lockStream(k)
	defer unlock()
	before := c.transferred[k]
	cost := c.pullLocked(k, d, false)
	return int(c.transferred[k] - before), cost
}

// Values returns the values of the d most recent items of stream k, most
// recent first, for predicate evaluation. It does not pull; call Pull
// first (or use Acquire, which does both atomically).
func (c *Cache) Values(k, d int) ([]float64, error) {
	unlock := c.lockStream(k)
	defer unlock()
	return c.valuesLocked(k, d)
}

func (c *Cache) valuesLocked(k, d int) ([]float64, error) {
	out := make([]float64, d)
	for t := 1; t <= d; t++ {
		it, ok := c.cached(k, c.now-int64(t))
		if !ok {
			return nil, fmt.Errorf("acquisition: stream %d missing item %d of %d", k, t, d)
		}
		out[t-1] = it.Value
	}
	return out, nil
}

// Acquire pulls the d most recent items of stream k and returns their
// values (most recent first) together with the incremental cost paid.
// Pull and read happen under one stream lock, so concurrent executions
// sharing the cache cannot interleave between paying for items and
// reading them.
//
// Warm hits take a lock-free fast path: when a published view of the
// stream covers the request at the current time step, the values are
// served straight from the immutable view — no locks, no allocation, no
// cost. The returned slice is shared and must be treated as read-only.
func (c *Cache) Acquire(k, d int) ([]float64, float64, error) {
	if v := c.views[k].Load(); v != nil && d <= len(v.vals) && v.now == c.nowA.Load() {
		c.requested[k].Add(int64(d))
		return v.vals[:d], 0, nil
	}
	unlock := c.lockStream(k)
	defer unlock()
	cost := c.pullLocked(k, d, true)
	vals, err := c.valuesLocked(k, d)
	if err == nil {
		// Publish the prefix for subsequent warm readers this step. Writes
		// serialize under the stream lock; Advance/evict invalidate under
		// the structural write lock, which excludes us.
		if v := c.views[k].Load(); v == nil || v.now != c.now || len(v.vals) < len(vals) {
			c.views[k].Store(&streamView{now: c.now, vals: vals})
		}
	}
	return vals, cost, err
}

// Snapshot reports which of the most recent items are currently cached:
// the result has one row per stream with windows[k] entries, where entry
// t-1 is true when the t-th most recent item of stream k is in memory.
// The row layout matches sched.Warm, so planners can price cached items
// as free. Each row is read under its stream's lock; rows of different
// streams are not mutually atomic (concurrent pulls on other streams may
// land between rows — planners snapshot between execution phases, when
// nothing pulls).
func (c *Cache) Snapshot(windows []int) [][]bool {
	return c.SnapshotInto(windows, nil)
}

// SnapshotInto is Snapshot writing into out, reusing its rows' capacity
// so per-tick planners can snapshot without allocating. A nil (or too
// small) out grows as needed; the possibly reallocated slice is returned.
func (c *Cache) SnapshotInto(windows []int, out [][]bool) [][]bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := len(c.items)
	if cap(out) < n {
		grown := make([][]bool, n)
		copy(grown, out)
		out = grown
	}
	out = out[:n]
	for k := range out {
		d := 0
		if k < len(windows) {
			d = windows[k]
		}
		row := out[k]
		if cap(row) < d {
			row = make([]bool, d)
		}
		row = row[:d]
		l := &c.locks[k].mu
		l.Lock()
		for t := 1; t <= d; t++ {
			_, row[t-1] = c.cached(k, c.now-int64(t))
		}
		l.Unlock()
		out[k] = row
	}
	return out
}

// NextSnapshotInto is SnapshotInto for the cache state the next tick
// plans against: after Advance(1) and before anything is pulled. Item 1
// is then not cached, and item t+1 is cached iff item t is cached now.
// Admission quotes price a newcomer at this state, because the first
// tick that runs it is the next one.
func (c *Cache) NextSnapshotInto(windows []int, out [][]bool) [][]bool {
	out = c.SnapshotInto(windows, out)
	for _, row := range out {
		if len(row) > 0 {
			copy(row[1:], row)
			row[0] = false
		}
	}
	return out
}

// ResetAccounting zeroes the spent counter, pull counts and traffic
// counters (the cache contents are preserved).
func (c *Cache) ResetAccounting() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.pulls {
		c.spent[k] = 0
		c.pulls[k] = 0
		c.requested[k].Store(0)
		c.transferred[k] = 0
		c.relayHits[k] = 0
		c.relaySaved[k] = 0
	}
}
