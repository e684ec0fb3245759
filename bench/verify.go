package main

import (
	"fmt"
	"sync"

	"paotr/bench/refcheck"
	"paotr/internal/service"
	"paotr/internal/stream"
)

// liveSet is the benchmark's own record of the registered queries, in
// registration order.
type liveSet struct {
	regs []Reg
	head int
}

func (l *liveSet) add(r Reg) { l.regs = append(l.regs, r) }

// popOldest removes and returns the ids of the n oldest live queries.
func (l *liveSet) popOldest(n int) []string {
	n = min(n, len(l.regs)-l.head)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = l.regs[l.head+i].ID
	}
	l.head += n
	return ids
}

// due returns the live queries due at tick, by id.
func (l *liveSet) due(tick int64) map[string]Reg {
	out := map[string]Reg{}
	for _, r := range l.regs[l.head:] {
		every := int64(max(r.Every, 1))
		if tick%every == 0 {
			out[r.ID] = r
		}
	}
	return out
}

// verifier checks returned executions against the reference checker.
// It is safe for concurrent use.
type verifier struct {
	ref *refcheck.Checker

	mu         sync.Mutex
	checked    int64
	mismatches int64
	notes      []string
}

func newVerifier() *verifier {
	return &verifier{ref: refcheck.New(stream.Wearables(sensorSeed))}
}

func (v *verifier) mismatch(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.mismatches++
	if len(v.notes) < 20 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// check compares one returned verdict with the reference.
func (v *verifier) check(text string, tick int64, got bool) {
	want, err := v.ref.Verdict(text, tick)
	v.mu.Lock()
	v.checked++
	v.mu.Unlock()
	switch {
	case err != nil:
		v.mismatch("tick %d %q: %v", tick, text, err)
	case got != want:
		v.mismatch("tick %d %q: verdict %v, reference %v", tick, text, got, want)
	}
}

// tick checks a whole tick result: it is for the expected tick, it holds
// exactly one error-free execution per due live query, and every verdict
// matches the reference.
func (v *verifier) tick(tr service.TickResult, tick int64, live *liveSet) {
	if tr.Tick != tick {
		v.mismatch("tick result numbered %d, want %d", tr.Tick, tick)
		return
	}
	due := live.due(tick)
	ref := map[string]bool{} // reference verdict per query text this tick
	for _, e := range tr.Executions {
		r, ok := due[e.ID]
		if !ok {
			v.mismatch("tick %d: unexpected or repeated execution of %q", tick, e.ID)
			continue
		}
		delete(due, e.ID)
		if e.Err != "" || e.Tick != tick {
			v.mismatch("tick %d: execution of %q failed or misnumbered: %q", tick, e.ID, e.Err)
			continue
		}
		want, seen := ref[r.Query]
		if !seen {
			var err error
			if want, err = v.ref.Verdict(r.Query, tick); err != nil {
				v.mismatch("tick %d %q: %v", tick, r.Query, err)
				continue
			}
			ref[r.Query] = want
		}
		v.mu.Lock()
		v.checked++
		v.mu.Unlock()
		if e.Value != want {
			v.mismatch("tick %d %q (%s): verdict %v, reference %v", tick, e.ID, r.Query, e.Value, want)
		}
	}
	for id := range due {
		v.mismatch("tick %d: due query %q did not execute", tick, id)
	}
}
