package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// peakRSSMiB is this process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS resets this process's peak resident set size to its
// current size, so the next peakRSSMiB covers only what runs after it.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// gcSample is a reading of the runtime's GC counters.
type gcSample struct {
	cycles, pauseMs, allocMiB float64
}

// readGC reads the GC cycle count, the total stop-the-world GC pause time
// (from the pause histogram, each bucket counted at its lower bound) and
// the cumulative heap allocation.
func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			if lo := h.Buckets[i]; c > 0 && lo > 0 {
				g.pauseMs += float64(c) * lo * 1e3
			}
		}
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.allocMiB = float64(s[2].Value.Uint64()) / (1 << 20)
	}
	return g
}

func (g gcSample) since(base gcSample) gcSample {
	return gcSample{g.cycles - base.cycles, g.pauseMs - base.pauseMs, g.allocMiB - base.allocMiB}
}

// traceDir is where traced runs leave their spans, inside the checkout.
func traceDir() string {
	dir := filepath.Join(".bench_build", "traces")
	os.MkdirAll(dir, 0o755)
	return dir
}

// traceReport adds the traced run's self times, and for each root span
// with a recorded baseline its wall time traced and untraced, the share of
// it the layer spans cover, and the tracing overhead (the difference).
func traceReport(out *Outcome, tr *Tracer) {
	spans := tr.Spans()
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var line strings.Builder
	line.WriteString("self time:")
	for _, n := range names {
		out.Metrics["self_s."+n] = Metric{self[n].Seconds(), "s"}
		fmt.Fprintf(&line, " %s %.4f s;", n, self[n].Seconds())
	}
	out.Notes = append(out.Notes, strings.TrimSuffix(line.String(), ";"))
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		untraced, ok := tr.baselines[s.Name]
		if !ok || s.Parent != 0 {
			continue
		}
		wall := s.Dur()
		cov := covered(s, children[s.ID]).Seconds() / wall.Seconds()
		key := "trace." + strings.TrimPrefix(s.Name, "traced.")
		out.Metrics[key+".traced_s"] = Metric{wall.Seconds(), "s"}
		out.Metrics[key+".untraced_s"] = Metric{untraced.Seconds(), "s"}
		out.Metrics[key+".coverage"] = Metric{cov, "ratio"}
		out.Notes = append(out.Notes, fmt.Sprintf("traced %s: wall %.4f s, layer spans cover %.1f%%, untraced wall %.4f s, tracing overhead %+.4f s",
			s.Name, wall.Seconds(), 100*cov, untraced.Seconds(), (wall-untraced).Seconds()))
	}
}
