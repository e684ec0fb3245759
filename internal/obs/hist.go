// Package obs is the service's low-overhead observability layer:
// allocation-free fixed-bucket latency histograms, a sampling span-style
// tick tracer, a bounded event journal for the rare structured events
// that used to vanish into write-only counters, and a hand-rolled
// Prometheus text-exposition encoder.
//
// The design constraint throughout is the tick hot path: the service's
// steady-state tick is gated at a fixed allocation budget, so everything
// recorded per tick (histogram observations, the tracing gate check)
// must be allocation-free and lock-free. Histograms are fixed arrays of
// atomic counters; the tracer hides behind a package-level atomic gate
// and allocates only on sampled ticks; journal appends happen only on
// rare events (drift trips, repartitions, relay first-publishes,
// estimator evictions), never per tick.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite log-spaced latency buckets. Bucket
// i covers (bucketBase<<(i-1), bucketBase<<i] nanoseconds — powers of
// two from ~1µs to ~137s — and one extra overflow bucket catches
// everything beyond, so a Histogram's counts slice has NumBuckets+1
// entries. Base-2 spacing keeps the bucket index a bit-length
// computation (no math.Log on the hot path) and bounds any quantile
// estimate's error to one bucket.
const NumBuckets = 28

// bucketBase is the upper bound of bucket 0 in nanoseconds (~1µs; a
// power of two so bucket indexing is pure bit arithmetic).
const bucketBase = 1024

// bucketBaseBits is bits.Len64(bucketBase - 1).
const bucketBaseBits = 10

// BucketBound returns the inclusive upper bound of bucket i in
// nanoseconds, and +Inf for the overflow bucket.
func BucketBound(i int) float64 {
	if i >= NumBuckets {
		return math.Inf(1)
	}
	return float64(uint64(bucketBase) << uint(i))
}

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns <= bucketBase {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - bucketBaseBits
	if i > NumBuckets {
		return NumBuckets
	}
	return i
}

// Histogram is a fixed-bucket log-spaced latency histogram: atomic
// counters over power-of-two nanosecond buckets. Observe is
// allocation-free and safe for concurrent use; histograms recorded
// independently (e.g. one per shard) merge exactly, because merging is
// integer counter addition.
type Histogram struct {
	counts [NumBuckets + 1]atomic.Int64
	sum    atomic.Int64 // total observed nanoseconds
}

// Observe records one latency observation. It never allocates.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// Snapshot captures the histogram's current counts with p50/p90/p99
// estimates filled in. The snapshot is a plain value — mergeable,
// serializable, and detached from the live counters.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Counts: make([]int64, NumBuckets+1)}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumNs = h.sum.Load()
	s.refreshQuantiles()
	return s
}

// HistSnapshot is a point-in-time copy of one Histogram: the raw bucket
// counts plus derived quantile estimates. Counts has NumBuckets+1
// entries (the last is the overflow bucket). Snapshots from different
// histograms merge by integer addition, so a merge of per-shard
// snapshots is byte-identical to a snapshot of one histogram that
// observed every sample.
type HistSnapshot struct {
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	SumNs  int64   `json:"sum_ns"`
	// P50Ns/P90Ns/P99Ns are quantile estimates in nanoseconds, linearly
	// interpolated inside the quantile's bucket — accurate to within one
	// log-spaced bucket of the exact order statistic.
	P50Ns float64 `json:"p50_ns"`
	P90Ns float64 `json:"p90_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// Merge adds another snapshot's counts into this one and refreshes the
// quantile estimates. Merging is commutative and associative.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Counts) == 0 {
		s.Counts = make([]int64, NumBuckets+1)
	}
	for i, c := range o.Counts {
		if i < len(s.Counts) {
			s.Counts[i] += c
		}
	}
	s.Count += o.Count
	s.SumNs += o.SumNs
	s.refreshQuantiles()
}

// refreshQuantiles recomputes the derived quantile estimates from the
// bucket counts.
func (s *HistSnapshot) refreshQuantiles() {
	s.P50Ns = s.Quantile(0.50)
	s.P90Ns = s.Quantile(0.90)
	s.P99Ns = s.Quantile(0.99)
}

// Quantile estimates the q-th quantile (q in [0, 1]) in nanoseconds by
// locating the bucket holding the q-th observation and interpolating
// linearly inside it. Returns 0 for an empty snapshot. The estimate is
// exact to the bucket: it always lands in the same log-spaced bucket as
// the true order statistic.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; ceil(q*n) with the
	// convention that q=0 is the first observation.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			if math.IsInf(hi, 1) {
				// Overflow bucket has no upper bound; report its lower edge.
				return lo
			}
			// Linear interpolation by the rank's position inside the bucket.
			frac := float64(rank-cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return BucketBound(NumBuckets - 1)
}

// Tick phases instrumented by the service: the per-tick latency
// breakdown recorded into a TickHists.
const (
	// PhasePlan covers leader election, joint planning and adaptive
	// (decision-tree) planning.
	PhasePlan = iota
	// PhaseAcquire covers the batched acquisition of deduplicated
	// opening windows.
	PhaseAcquire
	// PhaseExecute covers plan execution on the worker pool.
	PhaseExecute
	// PhaseFanOut covers shared-verdict fan-out, per-query accounting
	// and estimator cost feedback.
	PhaseFanOut
	// PhaseTotal is the whole tick, lock to return.
	PhaseTotal
	// NumPhases is the number of instrumented phases.
	NumPhases
)

// PhaseNames are the stable exposition names of the tick phases, indexed
// by phase constant.
var PhaseNames = [NumPhases]string{"plan", "acquire", "execute", "fanout", "total"}

// TickHists is the per-service set of tick-latency histograms: one per
// phase plus the total. All methods are safe for concurrent use.
type TickHists struct {
	phase [NumPhases]Histogram
}

// NewTickHists creates an empty histogram set.
func NewTickHists() *TickHists { return &TickHists{} }

// Observe records one phase duration. Allocation-free.
func (t *TickHists) Observe(phase int, d time.Duration) {
	if phase < 0 || phase >= NumPhases {
		return
	}
	t.phase[phase].Observe(d)
}

// Phase exposes one phase's histogram (e.g. for direct snapshotting).
func (t *TickHists) Phase(i int) *Histogram {
	if i < 0 || i >= NumPhases {
		return nil
	}
	return &t.phase[i]
}

// Snapshot captures every phase histogram, keyed by phase name.
func (t *TickHists) Snapshot() LatencySnapshot {
	out := make(LatencySnapshot, NumPhases)
	for i := 0; i < NumPhases; i++ {
		out[PhaseNames[i]] = t.phase[i].Snapshot()
	}
	return out
}

// LatencySnapshot is a set of phase-keyed histogram snapshots — the
// fleet's (or one shard's) tick-latency picture. JSON encoding is
// deterministic (Go serializes maps in key order).
type LatencySnapshot map[string]HistSnapshot

// MergeLatency merges src into dst phase by phase, allocating dst when
// nil, and returns it. Missing phases are copied whole.
func MergeLatency(dst, src LatencySnapshot) LatencySnapshot {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(LatencySnapshot, len(src))
	}
	for k, v := range src {
		e, ok := dst[k]
		if !ok {
			e = HistSnapshot{Counts: make([]int64, NumBuckets+1)}
		}
		e.Merge(v)
		dst[k] = e
	}
	return dst
}
