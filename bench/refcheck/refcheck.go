// Package refcheck is the benchmark's reference verdict checker: an
// evaluator of query texts that shares nothing with the serving runtime
// beyond the query language and the sensor streams. It parses the text
// with the parser, reads every leaf's window straight from the
// registry's sources, and evaluates every leaf — no acquisition cache,
// no plan, no short-circuit — so a verdict the runtime returns can be
// checked against the paper's semantics.
package refcheck

import (
	"fmt"
	"sync"

	"paotr/internal/parser"
	"paotr/internal/stream"
)

// Checker evaluates query texts at a tick. It is safe for concurrent
// use.
type Checker struct {
	reg *stream.Registry

	mu     sync.Mutex
	parsed map[string]parser.Expr
}

// New returns a checker over the given registry. Pass a registry of its
// own, built with the same seed as the runtime's.
func New(reg *stream.Registry) *Checker {
	return &Checker{reg: reg, parsed: map[string]parser.Expr{}}
}

// Verdict is the truth value of the query text at the given tick: at
// tick T a window of d items holds the items produced at steps T-1 down
// to T-d, most recent first.
func (c *Checker) Verdict(text string, tick int64) (bool, error) {
	e, err := c.expr(text)
	if err != nil {
		return false, err
	}
	return c.eval(e, tick)
}

func (c *Checker) expr(text string) (parser.Expr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.parsed[text]; ok {
		return e, nil
	}
	e, err := parser.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("refcheck: parsing %q: %w", text, err)
	}
	c.parsed[text] = e
	return e, nil
}

// eval evaluates every term of every node before combining them.
func (c *Checker) eval(e parser.Expr, tick int64) (bool, error) {
	switch v := e.(type) {
	case parser.Pred:
		st, ok := c.reg.ByName(v.P.Stream)
		if !ok {
			return false, fmt.Errorf("refcheck: unknown stream %q", v.P.Stream)
		}
		window := make([]float64, v.P.Items())
		for i := range window {
			window[i] = st.Source.At(tick - 1 - int64(i)).Value
		}
		return v.P.Eval(window)
	case parser.And:
		return c.combine(v.Terms, tick, true)
	case parser.Or:
		return c.combine(v.Terms, tick, false)
	}
	return false, fmt.Errorf("refcheck: unknown expression %T", e)
}

// combine evaluates every term, then folds the truths with AND (and is
// set) or OR.
func (c *Checker) combine(terms []parser.Expr, tick int64, and bool) (bool, error) {
	out := and
	for _, t := range terms {
		b, err := c.eval(t, tick)
		if err != nil {
			return false, err
		}
		if and {
			out = out && b
		} else {
			out = out || b
		}
	}
	return out, nil
}
