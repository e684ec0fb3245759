package trace

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestEstimatePrior(t *testing.T) {
	s := NewStore()
	p, n := s.Estimate("A < 3")
	if p != 0.5 || n != 0 {
		t.Errorf("prior estimate = %v, %d", p, n)
	}
}

func TestEstimateConverges(t *testing.T) {
	s := NewStore()
	for i := 0; i < 700; i++ {
		s.Record("A < 3", true)
	}
	for i := 0; i < 300; i++ {
		s.Record("A < 3", false)
	}
	p, n := s.Estimate("A < 3")
	if n != 1000 {
		t.Errorf("n = %d", n)
	}
	if math.Abs(p-0.7) > 0.01 {
		t.Errorf("estimate = %v, want ~0.7", p)
	}
	// Smoothing keeps estimates strictly inside (0,1).
	s2 := NewStore()
	s2.Record("B > 0", true)
	p2, _ := s2.Estimate("B > 0")
	if p2 <= 0.5 || p2 >= 1 {
		t.Errorf("one success estimate = %v, want in (0.5, 1)", p2)
	}
}

func TestStatsFor(t *testing.T) {
	s := NewStore()
	s.Record("x", true)
	s.Record("x", false)
	s.Record("x", true)
	st := s.StatsFor("x")
	if st.Evals != 3 || st.Successes != 2 {
		t.Errorf("stats = %+v", st)
	}
	if s.StatsFor("y") != (Stats{}) {
		t.Error("unknown predicate should have zero stats")
	}
}

func TestPredicatesSorted(t *testing.T) {
	s := NewStore()
	s.Record("b", true)
	s.Record("a", false)
	s.Record("c", true)
	got := s.Predicates()
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("Predicates = %v", got)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	s.Record("A < 3", true)
	s.Record("A < 3", false)
	s.Record("B > 9", true)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.StatsFor("A < 3") != (Stats{Evals: 2, Successes: 1}) {
		t.Errorf("loaded stats = %+v", s2.StatsFor("A < 3"))
	}
	p1, _ := s.Estimate("B > 9")
	p2, _ := s2.Estimate("B > 9")
	if p1 != p2 {
		t.Error("estimates differ after round trip")
	}
}

func TestLoadRejectsInconsistent(t *testing.T) {
	s := NewStore()
	if err := s.Load(strings.NewReader(`{"x": {"evals": 1, "successes": 5}}`)); err == nil {
		t.Error("successes > evals accepted")
	}
	if err := s.Load(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := s.Load(strings.NewReader(`null`)); err != nil {
		t.Errorf("null store should load as empty: %v", err)
	}
	if s.Len() != 0 {
		t.Error("null load should clear")
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := NewStore()
	s.Record("q", true)
	path := filepath.Join(t.TempDir(), "traces.json")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.StatsFor("q").Evals != 1 {
		t.Error("file round trip lost data")
	}
	if err := s2.LoadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestConcurrentRecord(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Record("hot", w%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	if st := s.StatsFor("hot"); st.Evals != 8000 || st.Successes != 4000 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCapEvictsLeastRecentlyRecorded: OldestKeys names the
// least-recently-stamped keys once a map outgrows its cap, over-evicting
// by cap/16, and nothing while the cap holds or is 0 (unbounded).
func TestCapEvictsLeastRecentlyRecorded(t *testing.T) {
	stamps := map[string]int64{}
	for i := 0; i < 5; i++ {
		stamps[string(rune('a'+i))] = int64(i + 1)
	}
	if got := OldestKeys(stamps, 5); got != nil {
		t.Errorf("OldestKeys at the cap = %v, want nil", got)
	}
	if got := OldestKeys(stamps, 0); got != nil {
		t.Errorf("OldestKeys uncapped = %v, want nil", got)
	}
	// The two oldest keys ("a", "b") go; cap 3 over-evicts 3/16 = 0 more.
	if got := OldestKeys(stamps, 3); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("OldestKeys(cap 3) = %v, want [a b]", got)
	}
	// Recency, not insertion order: refreshing "a" makes "b" the oldest.
	stamps["a"] = 9
	if got := OldestKeys(stamps, 4); len(got) != 1 || got[0] != "b" {
		t.Errorf("OldestKeys after refreshing a = %v, want [b]", got)
	}
	// A cap of 32 over-evicts 32/16 = 2 beyond the overflow.
	big := map[string]int64{}
	for i := 0; i < 33; i++ {
		big[fmt.Sprintf("p%02d", i)] = int64(i)
	}
	if got := OldestKeys(big, 32); len(got) != 3 || got[0] != "p00" || got[2] != "p02" {
		t.Errorf("OldestKeys(33 keys, cap 32) = %v, want [p00 p01 p02]", got)
	}
}
