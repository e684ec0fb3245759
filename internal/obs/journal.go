package obs

import (
	"sync"
	"time"
)

// Event kinds recorded in the journal. Each corresponds to a rare
// structural change that previously only bumped a counter.
const (
	// EventDriftTrip: a Page-Hinkley detector tripped on a predicate or
	// stream-cost series (Pred/Stream identify the series, Before/After
	// the estimate across the reset).
	EventDriftTrip = "drift-trip"
	// EventForcedReplan: shape-class plans were invalidated after drift
	// trips (Count = plans invalidated), or a joint plan failed validation
	// and its linear classes' executions failed (Count = classes failed).
	EventForcedReplan = "forced-replan"
	// EventRepartition: the sharded coordinator rebalanced queries across
	// shards (Count = queries moved).
	EventRepartition = "repartition"
	// EventRelayPublish: a shard published an item to the fleet-global L2
	// relay for the first time (Stream/Detail identify the item).
	EventRelayPublish = "relay-publish"
	// EventEstimatorEviction: the windowed estimator evicted cold
	// predicate traces to stay under its cap (Count = traces evicted).
	EventEstimatorEviction = "estimator-eviction"
	// EventAdmit / EventDefer / EventShed: the admission controller's
	// verdict on a registration (Pred carries the query id, Before the
	// quoted marginal J/tick, Detail "tier=... tenant=... reason=...").
	EventAdmit = "admit"
	EventDefer = "defer"
	EventShed  = "shed"
)

// Event is one timestamped journal entry. Fields not meaningful for a
// kind are zero (Stream is -1 when no stream is involved).
type Event struct {
	// Seq is a monotonically increasing sequence number assigned at
	// append; UnixNs the wall-clock append time.
	Seq    int64  `json:"seq"`
	UnixNs int64  `json:"unix_ns"`
	Type   string `json:"type"`
	// Tick is the service tick during which the event fired (0 when the
	// event fired outside a tick), Shard the originating shard index.
	Tick  int64 `json:"tick,omitempty"`
	Shard int   `json:"shard"`
	// Stream/Pred identify the affected series or plan key.
	Stream int    `json:"stream,omitempty"`
	Pred   string `json:"pred,omitempty"`
	// Before/After carry estimate values across a reset (drift trips).
	Before float64 `json:"before,omitempty"`
	After  float64 `json:"after,omitempty"`
	// Count is the magnitude of bulk events (plans dropped, queries
	// moved, traces evicted).
	Count  int    `json:"count,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// DefaultJournalCap is the default journal ring capacity.
const DefaultJournalCap = 1024

// Journal is a bounded ring buffer of typed events. Appends on a full
// ring evict the oldest entry; per-type counts survive eviction so
// exposition stays cumulative. Safe for concurrent use; the zero-cost
// invariant is structural — appends happen only on rare events, never
// on the per-tick path.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	size    int
	next    int
	filled  bool
	seq     int64
	dropped int64
	byType  map[string]int64
	clock   func() int64
}

// NewJournal creates a journal retaining up to capacity events
// (DefaultJournalCap when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{size: capacity, byType: make(map[string]int64)}
}

// Append records one event, stamping Seq and UnixNs. Nil-receiver safe
// so unwired components can call unconditionally.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	if j.clock != nil {
		e.UnixNs = j.clock()
	} else {
		e.UnixNs = time.Now().UnixNano()
	}
	j.byType[e.Type]++
	if j.ring == nil {
		j.ring = make([]Event, j.size)
	}
	if j.filled {
		j.dropped++
	}
	j.ring[j.next] = e
	if j.next++; j.next == len(j.ring) {
		j.next = 0
		j.filled = true
	}
}

// Events returns retained events in chronological order, filtered to
// typ when non-empty and truncated to the most recent limit entries
// when limit > 0.
func (j *Journal) Events(typ string, limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	scan := func(evs []Event) {
		for _, e := range evs {
			if e.Type != "" && (typ == "" || e.Type == typ) {
				out = append(out, e)
			}
		}
	}
	if j.filled {
		scan(j.ring[j.next:])
	}
	if j.ring != nil {
		scan(j.ring[:j.next])
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// CountByType returns the cumulative per-type event counts (including
// evicted events).
func (j *Journal) CountByType() map[string]int64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int64, len(j.byType))
	for k, v := range j.byType {
		out[k] = v
	}
	return out
}

// Dropped returns how many events have been evicted from the ring.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
