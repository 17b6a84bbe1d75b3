package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: summarize must sort
	}
	return s
}

func TestSummarizeHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n             int
		p50, pct, val float64
	}{
		{1000, 500, 99, 990},      // p99 has exactly 10 samples above it
		{1009, 505, 99, 999},      // p99.9 would leave 1 above; p99 leaves 10
		{999, 500, 95, 950},       // p99 would leave 9
		{100, 50, 90, 90},         // p95 would leave 5
		{20, 10, 50, 10},          // only the median has 10 above
		{15, 8, 0, 15},            // nothing qualifies: the maximum, flagged 0
		{1, 1, 0, 1},              // a single sample
		{10000, 5000, 99.9, 9990}, // p99.9 with 10 above
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.P50 != c.p50 || d.TailPct != c.pct || d.Tail != c.val {
			t.Errorf("n=%d: got %+v, want N=%d P50=%v p%v=%v", c.n, d, c.n, c.p50, c.pct, c.val)
		}
		if d.TailPct > 0 {
			above := 0
			for _, v := range seq(c.n) {
				if v > d.Tail {
					above++
				}
			}
			if above < minBeyond {
				t.Errorf("n=%d: %d samples beyond p%v, want at least %d", c.n, above, d.TailPct, minBeyond)
			}
		}
	}
	if d := summarize(nil); d != (Dist{}) {
		t.Errorf("empty: got %+v", d)
	}
}

// fakeClock advances only when slept on or when a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopStallMakesLaterOperationsLateNotSkipped(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	var sent []int
	shots := openLoop(clk, start, 10*ms, 5, func(i int) error {
		sent = append(sent, i)
		if i == 2 {
			clk.Sleep(35 * ms) // the sink stalls
		} else {
			clk.Sleep(ms)
		}
		return nil
	})
	if len(sent) != 5 || len(shots) != 5 {
		t.Fatalf("sent %v (%d shots), want all 5 operations", sent, len(shots))
	}
	want := []struct{ late, latency time.Duration }{
		{0, 1 * ms},        // due 0, sent on time
		{0, 1 * ms},        // due 10
		{0, 35 * ms},       // due 20, stalls until 55
		{25 * ms, 26 * ms}, // due 30, sent at 55 right after the stall
		{16 * ms, 17 * ms}, // due 40, sent at 56, still behind
	}
	for i, w := range want {
		s := shots[i]
		if got := s.Due.Sub(start); got != time.Duration(i)*10*ms {
			t.Errorf("shot %d due at %v, want %v", i, got, time.Duration(i)*10*ms)
		}
		if s.Late() != w.late || s.Latency() != w.latency {
			t.Errorf("shot %d: late %v latency %v, want %v and %v", i, s.Late(), s.Latency(), w.late, w.latency)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	sp := func(id, parent int, name string, a, b int64) Span {
		return Span{ID: id, Parent: parent, Name: name, Start: a, End: b}
	}
	spans := []Span{
		sp(1, 0, "root", 0, 100),
		sp(2, 1, "a", 10, 50),   // overlaps b
		sp(3, 1, "b", 30, 70),   // overlaps a
		sp(4, 1, "c", 90, 120),  // runs past the parent's end
		sp(5, 2, "a.x", 20, 30), // a's own child
		sp(6, 1, "b", 72, 74),   // a second call of b
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - (60 + 2 + 10), // children cover [10,70], [72,74] and [90,100]
		"a":    40 - 10,
		"b":    40 + 2,
		"c":    30,
		"a.x":  10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestSlowestShare(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = 1
	}
	s[7], s[100] = 99, 99 // the slowest 1% (2 of 200)
	if got, want := slowestShare(s, 0.01), 198.0/396.0; got != want {
		t.Errorf("slowestShare = %v, want %v", got, want)
	}
}
