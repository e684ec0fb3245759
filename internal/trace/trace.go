// Package trace records historical predicate evaluation outcomes and
// estimates leaf success probabilities from them. The paper assumes leaf
// probabilities are "inferred based on historical traces obtained for
// previous query executions" (Section I); this package is that substrate:
// the engine feeds every actual evaluation back into the store, and the
// planner reads smoothed estimates out of it, so schedules adapt as the
// observed stream behaviour drifts.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Estimator is a pluggable success-probability estimator over predicate
// evaluation outcomes. The engine records every realized outcome into its
// estimator and reads planning estimates back out. Store is the
// cumulative (never-forgetting) implementation; adapt.Windowed is the
// sliding-window one that tracks non-stationary streams.
type Estimator interface {
	// Record adds one evaluation outcome for the predicate.
	Record(pred string, success bool)
	// Estimate returns the estimated success probability and the number
	// of observations backing it.
	Estimate(pred string) (p float64, n int)
}

var _ Estimator = (*Store)(nil)

// Stats summarizes the recorded history of one predicate.
type Stats struct {
	// Evals is the number of recorded evaluations.
	Evals int `json:"evals"`
	// Successes is how many evaluated TRUE.
	Successes int `json:"successes"`
}

// Store accumulates evaluation outcomes keyed by predicate text. It is
// safe for concurrent use; reads (Estimate, StatsFor) take a shared lock
// so many concurrent planners can consult the store without contending.
type Store struct {
	mu     sync.RWMutex
	counts map[string]*Stats
	// PriorProb is the estimate returned for predicates with no history
	// (default 0.5).
	PriorProb float64
	// PriorWeight is the strength of the prior in pseudo-counts for
	// Laplace-style smoothing (default 2: one success, one failure).
	PriorWeight float64
}

// NewStore creates an empty store with the default uniform prior.
func NewStore() *Store {
	return &Store{counts: map[string]*Stats{}, PriorProb: 0.5, PriorWeight: 2}
}

// OldestKeys returns the least-recently-stamped keys to evict so that a
// map of len(stamps) entries honours the cap, over-evicting by ~1/16 of
// the cap so the scan amortizes over many insertions instead of running
// once per new key at the bound. It returns nil while the cap is
// honoured. The windowed estimator (internal/adapt) bounds its
// per-predicate state with it.
func OldestKeys(stamps map[string]int64, cap int) []string {
	if cap <= 0 || len(stamps) <= cap {
		return nil
	}
	type aged struct {
		key   string
		stamp int64
	}
	all := make([]aged, 0, len(stamps))
	for key, stamp := range stamps {
		all = append(all, aged{key, stamp})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })
	drop := len(stamps) - cap + cap/16
	if drop > len(all) {
		drop = len(all)
	}
	out := make([]string, drop)
	for i, a := range all[:drop] {
		out[i] = a.key
	}
	return out
}

// Record adds one evaluation outcome for the predicate.
func (s *Store) Record(pred string, success bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.counts[pred]
	if st == nil {
		st = &Stats{}
		s.counts[pred] = st
	}
	st.Evals++
	if success {
		st.Successes++
	}
}

// Estimate returns the smoothed success probability of the predicate and
// the number of observations backing it:
//
//	p = (successes + PriorWeight*PriorProb) / (evals + PriorWeight)
func (s *Store) Estimate(pred string) (p float64, n int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.counts[pred]
	if st == nil {
		return s.PriorProb, 0
	}
	return (float64(st.Successes) + s.PriorWeight*s.PriorProb) /
		(float64(st.Evals) + s.PriorWeight), st.Evals
}

// StatsFor returns the raw counts for a predicate.
func (s *Store) StatsFor(pred string) Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st := s.counts[pred]; st != nil {
		return *st
	}
	return Stats{}
}

// Predicates lists the recorded predicate texts, sorted.
func (s *Store) Predicates() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.counts))
	for k := range s.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of distinct predicates recorded.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.counts)
}

// Save writes the store as JSON.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.counts)
}

// Load reads counts previously written by Save, replacing the current
// contents.
func (s *Store) Load(r io.Reader) error {
	var counts map[string]*Stats
	if err := json.NewDecoder(r).Decode(&counts); err != nil {
		return fmt.Errorf("trace: decoding store: %w", err)
	}
	for k, st := range counts {
		if st == nil || st.Evals < 0 || st.Successes < 0 || st.Successes > st.Evals {
			return fmt.Errorf("trace: inconsistent counts for %q", k)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts = counts
	if s.counts == nil {
		s.counts = map[string]*Stats{}
	}
	return nil
}

// SaveFile writes the store to a file.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a store from a file.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}
