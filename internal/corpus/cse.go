// Duplicated-shape fleet generation: the workload the service's
// cross-tenant shape factoring monetizes. A multi-tenant
// deployment rarely carries N distinct query shapes — tenants install
// the same alert templates over the same shared feeds — so the fleet
// collapses to M distinct shapes with N/M subscribers each, and the
// tick path should pay O(M), not O(N).
package corpus

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// CSEConfig parameterizes a duplicated-shape fleet.
type CSEConfig struct {
	// Tenants is the number of registered query identities N.
	Tenants int
	// Shapes is the number of distinct query shapes M the tenants draw
	// from (capped at Tenants; tenant i subscribes to shape i mod M).
	Shapes int
	// Streams is the stream-space size; shapes reference streams named
	// "s0".."s<Streams-1>" (see StreamNames).
	Streams int
	// Jitter, when positive, perturbs each tenant's leaf probabilities by
	// up to ±Jitter — near-miss twins that must NOT be deduplicated,
	// the negative control for shape factoring. 0 yields exact twins.
	Jitter float64
	// Seed drives the deterministic generator.
	Seed uint64
}

func (c CSEConfig) norm() CSEConfig {
	if c.Tenants < 1 {
		c.Tenants = 1
	}
	if c.Shapes < 1 {
		c.Shapes = 1
	}
	if c.Shapes > c.Tenants {
		c.Shapes = c.Tenants
	}
	if c.Streams < 1 {
		c.Streams = 1
	}
	return c
}

// StreamNames lists the stream names a CSE fleet references, in registry
// order: the caller registers these before registering the fleet.
func (c CSEConfig) StreamNames() []string {
	c = c.norm()
	out := make([]string, c.Streams)
	for k := range out {
		out[k] = fmt.Sprintf("s%d", k)
	}
	return out
}

// CSEQuery is one generated registration.
type CSEQuery struct {
	// ID is the tenant's query id ("t<i>"), Text the service query text.
	ID   string
	Text string
	// Shape indexes the distinct shape the tenant subscribed to.
	Shape int
}

// cseLeaf is one leaf of a shape template before rendering.
type cseLeaf struct {
	stream int
	window int
	thresh float64
	prob   float64
}

// CSEFleet generates a duplicated-shape fleet: Shapes distinct annotated
// DNF templates over the stream space, each subscribed to by
// Tenants/Shapes tenant identities (tenant i takes shape i mod Shapes).
// With Jitter == 0 the copies are byte-identical texts — exact shape
// twins a factoring service interns into Shapes classes. With Jitter > 0
// every tenant's probabilities are independently perturbed, so the
// fleet's shapes are pairwise distinct and nothing may be factored.
func CSEFleet(cfg CSEConfig) []CSEQuery {
	cfg = cfg.norm()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5e5))

	shapes := make([][][]cseLeaf, cfg.Shapes) // shape -> AND term -> leaves
	for si := range shapes {
		ands := make([][]cseLeaf, 1+rng.IntN(2))
		for a := range ands {
			leaves := make([]cseLeaf, 1+rng.IntN(3))
			for l := range leaves {
				leaves[l] = cseLeaf{
					stream: rng.IntN(cfg.Streams),
					window: 2 + rng.IntN(7),
					thresh: 0.1 + 0.05*float64(rng.IntN(9)),
					prob:   0.05 + 0.9*rng.Float64(),
				}
			}
			ands[a] = leaves
		}
		shapes[si] = ands
	}

	out := make([]CSEQuery, cfg.Tenants)
	for i := range out {
		si := i % cfg.Shapes
		jit := func(p float64) float64 {
			if cfg.Jitter <= 0 {
				return p
			}
			p += cfg.Jitter * (2*rng.Float64() - 1)
			if p < 0.01 {
				p = 0.01
			}
			if p > 0.99 {
				p = 0.99
			}
			return p
		}
		var b strings.Builder
		for a, leaves := range shapes[si] {
			if a > 0 {
				b.WriteString(" OR ")
			}
			multi := len(leaves) > 1
			if multi && len(shapes[si]) > 1 {
				b.WriteByte('(')
			}
			for l, lf := range leaves {
				if l > 0 {
					b.WriteString(" AND ")
				}
				fmt.Fprintf(&b, "AVG(s%d,%d) > %.2f [p=%.6f]",
					lf.stream, lf.window, lf.thresh, jit(lf.prob))
			}
			if multi && len(shapes[si]) > 1 {
				b.WriteByte(')')
			}
		}
		out[i] = CSEQuery{ID: fmt.Sprintf("t%d", i), Text: b.String(), Shape: si}
	}
	return out
}
