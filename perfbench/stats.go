package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// Dist summarizes one timing distribution: its median and the highest
// percentile of tailLadder with at least minBeyond samples beyond it.
// TailPct is 0 (and Tail the maximum) when even the median has fewer than
// minBeyond samples above it.
type Dist struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps binary rounding of p (99.9) from pushing an exact
	// rank up by one.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// summarize computes the Dist of samples (the slice is sorted in place).
func summarize(samples []float64) Dist {
	n := len(samples)
	if n == 0 {
		return Dist{}
	}
	sort.Float64s(samples)
	d := Dist{N: n, P50: samples[rankIndex(50, n)], Tail: samples[n-1]}
	for _, p := range tailLadder {
		i := rankIndex(p, n)
		if n-1-i >= minBeyond {
			d.TailPct, d.Tail = p, samples[i]
			break
		}
	}
	return d
}

// percentile returns the nearest-rank percentile p of samples, sorting a
// copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankIndex(p, len(s))]
}

// median is percentile 50.
func median(samples []float64) float64 { return percentile(samples, 50) }

// Shot is one open-loop operation: when it was due, when it was actually
// sent, when it completed, and its error.
type Shot struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is the operation's time from its scheduled send time to its
// completion: a stall that delays later sends is charged to them.
func (s Shot) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Late is how far behind schedule the generator sent the operation.
func (s Shot) Late() time.Duration { return s.Sent.Sub(s.Due) }

// Clock abstracts time for the open-loop generator so its accounting can
// be tested without real waiting.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends n operations on a fixed schedule, operation i due at
// start + i*interval, from one goroutine (one connection). An operation
// that is already due when the previous one completes is sent at once and
// charged from its due time; none is skipped.
func openLoop(c Clock, start time.Time, interval time.Duration, n int, send func(i int) error) []Shot {
	shots := make([]Shot, n)
	for i := range shots {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		sent := c.Now()
		err := send(i)
		shots[i] = Shot{Due: due, Sent: sent, Done: c.Now(), Err: err}
	}
	return shots
}

// Span is one timed call into a layer of the program.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns each span name's total self time: the span's duration
// minus the part of its interval that its children cover. Overlapping
// children (parallel calls) are merged first, so covered time is never
// counted twice.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}
