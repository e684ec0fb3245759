// Package query defines the data model for probabilistic boolean query
// trees over shared sensor data streams, following Casanova, Lim, Robert,
// Vivien and Zaidouni, "Cost-Optimal Execution of Boolean Query Trees with
// Shared Streams" (IPDPS 2014).
//
// A query is a DNF tree: an OR of AND nodes whose leaves are independent
// probabilistic predicates. Leaf j requires the d_j most recent data items
// from stream S(j), evaluates to TRUE with probability p_j, and each item of
// stream S_k costs c(S_k) to acquire. An AND-tree is the special case of a
// single AND node. The "shared" model allows one stream to appear at several
// leaves, so acquired items are reused across leaves.
package query

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// StreamID identifies a stream within a Tree (index into Tree.Streams).
type StreamID int

// Stream describes a data stream: a named source of periodically produced
// data items with a fixed per-item acquisition cost.
type Stream struct {
	// Name is a human-readable identifier ("A", "heart-rate", ...).
	Name string `json:"name"`
	// Cost is the cost c(S) of acquiring one data item from this stream
	// (e.g. joules per item). Must be non-negative.
	Cost float64 `json:"cost"`
}

// Leaf is a probabilistic boolean predicate at a leaf of the query tree.
type Leaf struct {
	// And is the index of the AND node this leaf belongs to (0-based).
	And int `json:"and"`
	// Stream is the stream the predicate reads.
	Stream StreamID `json:"stream"`
	// Items is d_j: the predicate needs the Items most recent data items
	// of the stream (a time window). Must be >= 1.
	Items int `json:"items"`
	// Prob is p_j, the probability that the predicate evaluates to TRUE.
	Prob float64 `json:"prob"`
	// Label is an optional human-readable form, e.g. "AVG(A,5) < 70".
	Label string `json:"label,omitempty"`
}

// Q returns the failure probability q_j = 1 - p_j of the leaf.
func (l Leaf) Q() float64 { return 1 - l.Prob }

// Tree is a DNF query tree: an OR of AND nodes over probabilistic leaves.
// An AND-tree is represented as a Tree with a single AND node.
//
// Leaves are stored in a flat slice; Leaf.And groups them under AND nodes.
// AND indices must form the contiguous range 0..NumAnds()-1.
type Tree struct {
	Streams []Stream `json:"streams"`
	Leaves  []Leaf   `json:"leaves"`

	// memoized accessors (not serialized)
	ands [][]int
}

// NumLeaves returns the total number of leaves m.
func (t *Tree) NumLeaves() int { return len(t.Leaves) }

// NumStreams returns the number of streams s.
func (t *Tree) NumStreams() int { return len(t.Streams) }

// NumAnds returns the number N of AND nodes under the OR root.
func (t *Tree) NumAnds() int {
	n := 0
	for _, l := range t.Leaves {
		if l.And+1 > n {
			n = l.And + 1
		}
	}
	return n
}

// IsAndTree reports whether the tree consists of a single AND node.
func (t *Tree) IsAndTree() bool { return t.NumAnds() <= 1 }

// AndLeaves returns, for each AND node, the indices of its leaves in
// Tree.Leaves order. The result is memoized; callers must not mutate it.
func (t *Tree) AndLeaves() [][]int {
	if t.ands != nil {
		return t.ands
	}
	ands := make([][]int, t.NumAnds())
	for j, l := range t.Leaves {
		ands[l.And] = append(ands[l.And], j)
	}
	t.ands = ands
	return ands
}

// InvalidateCache drops memoized accessors after a mutation of Leaves.
func (t *Tree) InvalidateCache() { t.ands = nil }

// Cost returns the per-item cost of stream k.
func (t *Tree) Cost(k StreamID) float64 { return t.Streams[k].Cost }

// LeafAcquireCost returns the isolated acquisition cost of leaf j,
// d_j * c(S(j)) — the cost of evaluating the leaf with an empty cache.
func (t *Tree) LeafAcquireCost(j int) float64 {
	l := t.Leaves[j]
	return float64(l.Items) * t.Streams[l.Stream].Cost
}

// MaxItems returns D, the maximum number of data items required from any
// stream by any leaf (0 for an empty tree).
func (t *Tree) MaxItems() int {
	d := 0
	for _, l := range t.Leaves {
		if l.Items > d {
			d = l.Items
		}
	}
	return d
}

// StreamMaxItems returns, per stream, the maximum window size required by
// any leaf of the tree (0 for unused streams).
func (t *Tree) StreamMaxItems() []int {
	d := make([]int, len(t.Streams))
	for _, l := range t.Leaves {
		if l.Items > d[l.Stream] {
			d[l.Stream] = l.Items
		}
	}
	return d
}

// AndProb returns the success probability of AND node i assuming
// independent leaves: the product of its leaf probabilities.
func (t *Tree) AndProb(i int) float64 {
	p := 1.0
	for _, j := range t.AndLeaves()[i] {
		p *= t.Leaves[j].Prob
	}
	return p
}

// RootProb returns the probability that the whole DNF query evaluates to
// TRUE: 1 - prod_i (1 - AndProb(i)). Note that with shared streams leaves
// remain statistically independent (sharing is of *data*, not of truth
// values), so the product form is exact.
func (t *Tree) RootProb() float64 {
	q := 1.0
	for i := 0; i < t.NumAnds(); i++ {
		q *= 1 - t.AndProb(i)
	}
	return 1 - q
}

// SharingRatio returns rho, the expected number of leaves per stream:
// total leaves divided by the number of streams actually referenced.
func (t *Tree) SharingRatio() float64 {
	used := map[StreamID]bool{}
	for _, l := range t.Leaves {
		used[l.Stream] = true
	}
	if len(used) == 0 {
		return 0
	}
	return float64(len(t.Leaves)) / float64(len(used))
}

// IsReadOnce reports whether every stream occurs in at most one leaf
// (the classical PAOTR model).
func (t *Tree) IsReadOnce() bool {
	seen := map[StreamID]bool{}
	for _, l := range t.Leaves {
		if seen[l.Stream] {
			return false
		}
		seen[l.Stream] = true
	}
	return true
}

// Validation errors returned by Tree.Validate.
var (
	ErrNoLeaves      = errors.New("query: tree has no leaves")
	ErrNoStreams     = errors.New("query: tree has no streams")
	ErrBadAndIndex   = errors.New("query: AND indices must cover 0..N-1 contiguously")
	ErrBadStream     = errors.New("query: leaf references unknown stream")
	ErrBadItems      = errors.New("query: leaf requires fewer than one data item")
	ErrBadProb       = errors.New("query: leaf probability outside [0,1]")
	ErrNegativeCost  = errors.New("query: stream has negative per-item cost")
	ErrDuplicateName = errors.New("query: duplicate stream name")
)

// Validate checks structural invariants of the tree.
func (t *Tree) Validate() error {
	if len(t.Leaves) == 0 {
		return ErrNoLeaves
	}
	if len(t.Streams) == 0 {
		return ErrNoStreams
	}
	names := make(map[string]bool, len(t.Streams))
	for k, s := range t.Streams {
		if s.Cost < 0 {
			return fmt.Errorf("%w: stream %d (%q) cost %v", ErrNegativeCost, k, s.Name, s.Cost)
		}
		if s.Name != "" {
			if names[s.Name] {
				return fmt.Errorf("%w: %q", ErrDuplicateName, s.Name)
			}
			names[s.Name] = true
		}
	}
	n := t.NumAnds()
	seen := make([]bool, n)
	for j, l := range t.Leaves {
		if l.And < 0 || l.And >= n {
			return fmt.Errorf("%w: leaf %d has AND index %d", ErrBadAndIndex, j, l.And)
		}
		seen[l.And] = true
		if int(l.Stream) < 0 || int(l.Stream) >= len(t.Streams) {
			return fmt.Errorf("%w: leaf %d references stream %d", ErrBadStream, j, l.Stream)
		}
		if l.Items < 1 {
			return fmt.Errorf("%w: leaf %d requires %d items", ErrBadItems, j, l.Items)
		}
		if l.Prob < 0 || l.Prob > 1 {
			return fmt.Errorf("%w: leaf %d has probability %v", ErrBadProb, j, l.Prob)
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: AND node %d has no leaves", ErrBadAndIndex, i)
		}
	}
	return nil
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		Streams: append([]Stream(nil), t.Streams...),
		Leaves:  append([]Leaf(nil), t.Leaves...),
	}
	return c
}

// Fingerprint copies what a plan cache keys a schedule on: the tree's
// per-leaf probabilities and per-stream per-item costs. Drift measures a
// later annotation of the same tree against it.
func (t *Tree) Fingerprint() (probs, costs []float64) {
	probs = make([]float64, len(t.Leaves))
	for j := range t.Leaves {
		probs[j] = t.Leaves[j].Prob
	}
	costs = make([]float64, len(t.Streams))
	for k := range t.Streams {
		costs[k] = t.Streams[k].Cost
	}
	return probs, costs
}

// Drift returns how far the tree has moved from a Fingerprint: the largest
// absolute per-leaf probability change and relative per-stream cost change
// |b/a - 1| (learned costs drift), or +Inf when the shapes differ or a cost
// falls to or rises from zero. Only streams some leaf reads are compared: a
// schedule and its price cannot depend on the cost of a stream the query
// never touches, so a price shift elsewhere in the registry must not drift
// it.
func (t *Tree) Drift(probs, costs []float64) float64 {
	if len(probs) != len(t.Leaves) || len(costs) != len(t.Streams) {
		return math.Inf(1)
	}
	d := 0.0
	for j, lf := range t.Leaves {
		if dj := math.Abs(probs[j] - lf.Prob); dj > d {
			d = dj
		}
		switch a, b := costs[lf.Stream], t.Streams[lf.Stream].Cost; {
		case a == b:
		case a <= 0:
			return math.Inf(1)
		default:
			if dk := math.Abs(b-a) / a; dk > d {
				d = dk
			}
		}
	}
	return d
}

// StreamByName returns the ID of the stream with the given name.
func (t *Tree) StreamByName(name string) (StreamID, bool) {
	for k, s := range t.Streams {
		if s.Name == name {
			return StreamID(k), true
		}
	}
	return -1, false
}

// LeafName returns a printable name for leaf j: its label if set,
// otherwise "<stream>[d]" as in the paper's figures (e.g. "A[2]").
func (t *Tree) LeafName(j int) string {
	l := t.Leaves[j]
	if l.Label != "" {
		return l.Label
	}
	name := t.Streams[l.Stream].Name
	if name == "" {
		name = fmt.Sprintf("S%d", l.Stream)
	}
	return fmt.Sprintf("%s[%d]", name, l.Items)
}

// String renders the tree in a compact single-line DNF form, e.g.
// "(A[1] & A[2] & B[1]) | (C[1] & B[1])".
func (t *Tree) String() string {
	var b strings.Builder
	for i, and := range t.AndLeaves() {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteByte('(')
		for r, j := range and {
			if r > 0 {
				b.WriteString(" & ")
			}
			b.WriteString(t.LeafName(j))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// NewAndTree builds a single-AND tree from streams and leaves; the And
// field of each leaf is forced to zero.
func NewAndTree(streams []Stream, leaves []Leaf) *Tree {
	ls := append([]Leaf(nil), leaves...)
	for j := range ls {
		ls[j].And = 0
	}
	return &Tree{Streams: streams, Leaves: ls}
}
