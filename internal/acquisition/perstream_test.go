package acquisition

import (
	"fmt"
	"testing"

	"paotr/internal/stream"
)

// wideRegistry builds a registry with n constant streams at unit cost.
func wideRegistry(t *testing.T, n int) *stream.Registry {
	t.Helper()
	reg := stream.NewRegistry()
	for i := 0; i < n; i++ {
		if err := reg.Add(stream.Constant(fmt.Sprintf("s%d", i), float64(i)), stream.CostModel{BytesPerItem: 1, JoulesPerByte: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestPerStreamStats: requested/transferred/pulls/spent and the hit rate
// are tracked per stream, and sum to the fleet-wide aggregates.
func TestPerStreamStats(t *testing.T) {
	c := NewShared(wideRegistry(t, 3))
	if err := c.Retain("q", []int{4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	c.Advance(5)
	c.Pull(0, 4) // 4 transferred
	c.Pull(0, 4) // 4 requested, 0 transferred
	c.Pull(1, 2) // 2 transferred
	s0, s1, s2 := c.StreamStats(0), c.StreamStats(1), c.StreamStats(2)
	if s0.Requested != 8 || s0.Transferred != 4 || s0.HitRate != 0.5 {
		t.Errorf("stream 0 stats = %+v", s0)
	}
	if c.Pulls(0) != 4 {
		t.Errorf("Pulls(0) = %d, want 4", c.Pulls(0))
	}
	if s1.Requested != 2 || s1.Transferred != 2 || s1.HitRate != 0 {
		t.Errorf("stream 1 stats = %+v", s1)
	}
	if s2.Requested != 0 || s2.HitRate != 0 {
		t.Errorf("stream 2 stats = %+v", s2)
	}
	if s0.Name != "s0" || s1.Stream != 1 {
		t.Errorf("stream identity not reported: %+v %+v", s0, s1)
	}
	agg := c.Stats()
	per := c.PerStream()
	var req, tr int64
	var spent float64
	for _, s := range per {
		req += s.Requested
		tr += s.Transferred
		spent += s.Spent
	}
	if req != agg.Requested || tr != agg.Transferred || spent != agg.Spent {
		t.Errorf("per-stream sums (%d, %d, %v) != aggregates %+v", req, tr, spent, agg)
	}
}
