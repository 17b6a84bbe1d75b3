package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/corpus"
	"baywatch/internal/dsp"
	"baywatch/internal/ingest"
	"baywatch/internal/langmodel"
	"baywatch/internal/mapreduce"
	"baywatch/internal/novelty"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/ranking"
	"baywatch/internal/timeseries"
	"baywatch/internal/tokenfilter"
	"baywatch/internal/whitelist"
)

const (
	// setupsPerRun is how many times a batch metric run sets the program
	// up after each run; setup_s is the median of all set-ups.
	setupsPerRun = 4
	// peakReps is how many fresh batch processes a batch metric run
	// starts to measure peak resident memory; peak_rss_mib is their p75.
	peakReps = 5
	// ingestWorkers and splitsPerFile are the -shards settings of the
	// batch runs (cmd/baywatch -shards 2 -ingest-workers 2).
	ingestWorkers = 2
	splitsPerFile = 2
	// globalWhitelist is cmd/baywatch's default -whitelist size.
	globalWhitelist = 1000
)

// pipelineConfig is cmd/baywatch's default pipeline configuration: the
// language model trained on the popular-domain corpus and the global
// whitelist of the corpus's head.
func pipelineConfig() (pipeline.Config, error) {
	lm, err := langmodel.Train(corpus.PopularDomains(20000, 42))
	if err != nil {
		return pipeline.Config{}, err
	}
	return pipeline.Config{
		Scale: 1, LocalTau: 0.01, LM: lm, RankPercentile: 90,
		Global: whitelist.NewGlobal(corpus.PopularDomains(globalWhitelist, 42)),
	}, nil
}

// batchEnv is the program set-up a batch run needs before its first input.
type batchEnv struct {
	cfg  pipeline.Config
	corr *proxylog.Correlator
}

// setupBatch builds the language model, the global whitelist and the DHCP
// correlator of the site in dir the way cmd/baywatch builds them.
func setupBatch(dir string) (*batchEnv, error) {
	cfg, err := pipelineConfig()
	if err != nil {
		return nil, err
	}
	corr, err := correlator(dir)
	if err != nil {
		return nil, err
	}
	return &batchEnv{cfg: cfg, corr: corr}, nil
}

// correlator builds the DHCP correlator from the site's leases.
func correlator(dir string) (*proxylog.Correlator, error) {
	data, err := os.ReadFile(filepath.Join(dir, leasesFile))
	if err != nil {
		return nil, err
	}
	var leases []proxylog.Lease
	if err := json.Unmarshal(data, &leases); err != nil {
		return nil, fmt.Errorf("parse leases: %w", err)
	}
	return proxylog.NewCorrelator(leases)
}

// logFiles lists the site's proxy logs.
func logFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "proxy-*.log"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no proxy-*.log files under %s", dir)
	}
	sort.Strings(files)
	return files, nil
}

// runStream is the measured operation: from planning shards over the
// files on disk to the ranked result (the cmd/baywatch -shards path).
func runStream(files []string, env *batchEnv, workers int) (*pipeline.Result, time.Duration, error) {
	start := time.Now()
	shards, err := ingest.PlanShards(files, splitsPerFile)
	if err != nil {
		return nil, 0, err
	}
	res, err := pipeline.RunStream(context.Background(), shards, env.corr, env.cfg, pipeline.StreamOptions{Workers: workers})
	return res, time.Since(start), err
}

// reportRows renders a result's ranked report the way /ranked serves it.
func reportRows(res *pipeline.Result) []Row {
	rows := make([]Row, 0, len(res.Reported))
	for _, c := range res.Reported {
		r := Row{Src: c.Source, Dst: c.Destination, Score: c.Score, LMScore: c.LMScore}
		if c.Detection != nil {
			for _, k := range c.Detection.Kept {
				if p := k.BestPeriod(); p > 0 && (r.Period == 0 || p < r.Period) {
					r.Period = p
				}
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// funnel is the result's filter funnel (counts only, no timings).
func funnel(s pipeline.Stats) map[string]int {
	return map[string]int{
		"input_events": s.InputEvents, "pairs": s.Pairs,
		"after_global_whitelist": s.AfterGlobalWhitelist, "after_local_whitelist": s.AfterLocalWhitelist,
		"periodic": s.Periodic, "after_token_filter": s.AfterTokenFilter,
		"after_novelty": s.AfterNovelty, "reported": s.Reported, "errored": s.Errored,
		"truncated_pairs": s.TruncatedPairs,
	}
}

// batchSite is one site of a batch metric run.
type batchSite struct {
	files []string
	env   *batchEnv
	first *pipeline.Result
}

// measureBatch is the metric run of a batch workload: cycles until the
// time is used up (at least two). A cycle runs every site once, one after
// another, from its logs on disk to its ranked report. The program is set
// up once before the first cycle and setupsPerRun times after each run,
// so the set-ups are spread over the whole window and a slow stretch of
// the machine does not decide their median.
func measureBatch(o options) (*Outcome, error) {
	dirs, err := siteDirs(o.dir)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Metrics: map[string]Metric{}}
	var setups []float64
	setup := func() (*batchEnv, error) {
		// Each set-up starts from a collected heap, as in a fresh process.
		runtime.GC()
		start := time.Now()
		env, err := setupBatch(dirs[0])
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return env, nil
	}
	env, err := setup()
	if err != nil {
		return nil, err
	}
	sites := make([]*batchSite, len(dirs))
	for i, dir := range dirs {
		files, err := logFiles(dir)
		if err != nil {
			return nil, err
		}
		corr, err := correlator(dir)
		if err != nil {
			return nil, err
		}
		sites[i] = &batchSite{files: files, env: &batchEnv{cfg: env.cfg, corr: corr}}
	}

	var walls []float64
	window := time.Duration(o.seconds) * time.Second
	begin := time.Now()
	for len(walls) < 2 || time.Since(begin) < window {
		var wall time.Duration
		for i, s := range sites {
			// Each run starts from a collected heap returned to the OS, as
			// in a fresh batch process.
			debug.FreeOSMemory()
			out.Attempted++
			res, w, err := runStream(s.files, s.env, ingestWorkers)
			if err == nil && res.Degraded {
				err = fmt.Errorf("run degraded")
			}
			if err != nil {
				out.Failed++
				out.Errors = append(out.Errors, fmt.Sprintf("site %d: %v", i, err))
				return out, nil
			}
			wall += w
			for j := 0; j < setupsPerRun; j++ {
				if _, err := setup(); err != nil {
					return nil, err
				}
			}
			if s.first == nil {
				s.first = res
			} else if !slices.Equal(reportRows(s.first), reportRows(res)) || !maps.Equal(funnel(s.first.Stats), funnel(res.Stats)) {
				out.Errors = append(out.Errors, fmt.Sprintf("site %d, cycle %d: report differs from cycle 1", i, len(walls)+1))
			}
		}
		walls = append(walls, ms(wall))
	}
	var events, pairs, reported int
	for _, s := range sites {
		out.Reports = append(out.Reports, reportRows(s.first))
		out.Funnels = append(out.Funnels, funnel(s.first.Stats))
		events += s.first.Stats.InputEvents
		pairs += s.first.Stats.Pairs
		reported += s.first.Stats.Reported
	}
	fresh := summarize(walls)
	m := out.Metrics
	m["setup_s"] = Metric{median(setups), "s"}
	// Every cycle reads the same events, so the median cycle gives the
	// median rate.
	m["events_per_s"] = Metric{float64(events) / (fresh.P50 / 1e3), "1/s"}
	m["fresh_p50_ms"] = Metric{fresh.P50, "ms"}
	m["fresh_p99_ms"] = Metric{fresh.Tail, "ms"}
	out.Notes = append(out.Notes,
		fmt.Sprintf("input: %d site(s), %d events, %d pairs, %d reported", len(sites), events, pairs, reported),
		distNote("cycle wall (every site's logs on disk to its ranked report)", fresh, "ms"),
		fmt.Sprintf("setup: p50 %.4f s (n=%d)", median(setups), len(setups)))
	return out, nil
}

// peakMain is one batch process the way cmd/baywatch -shards runs one:
// set-up, then one run from the site's logs in --dir to the ranked report.
// It prints the process's peak resident memory in MiB. Repeated runs in
// one process keep more memory than a fresh process does, so the metric
// run measures peak memory in processes of its own.
func peakMain(args []string) error {
	o, err := parseFlags("peak", args)
	if err != nil {
		return err
	}
	files, err := logFiles(o.dir)
	if err != nil {
		return err
	}
	env, err := setupBatch(o.dir)
	if err != nil {
		return err
	}
	res, _, err := runStream(files, env, ingestWorkers)
	if err != nil {
		return err
	}
	if res.Degraded {
		return fmt.Errorf("run degraded")
	}
	fmt.Println(peakRSSMiB())
	return nil
}

// measurePeaks starts peakReps batch processes on the run's inputs and
// reports the nearest-rank p75 of their peak resident memory (the second
// largest of five) as peak_rss_mib. The processes take the sites in turn.
// A process's peak depends on whether a collection happens to run just
// before its largest live heap, which splits the peaks into a low and a
// high group; the p75 reports the high one without resting on a single
// process.
func measurePeaks(exe string, o options, out *Outcome) error {
	dirs, err := siteDirs(o.dir)
	if err != nil {
		return err
	}
	var peaks []float64
	for i := 0; i < peakReps; i++ {
		cmd := exec.Command(exe, "peak", "--workload", o.workload, "--dir", dirs[i%len(dirs)])
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		out.Attempted++
		if err != nil {
			out.Failed++
			return fmt.Errorf("peak process: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(data)), 64)
		if err != nil {
			return fmt.Errorf("peak process printed %q", data)
		}
		peaks = append(peaks, v)
	}
	out.Metrics["peak_rss_mib"] = Metric{percentile(peaks, 75), "MiB"}
	sort.Float64s(peaks)
	out.Notes = append(out.Notes, fmt.Sprintf("peak RSS of %d fresh batch processes: p75 %.1f MiB of %.1f", len(peaks), percentile(peaks, 75), peaks))
	return nil
}

// traceBatch is the batch half of a traced run, over the run's logs:
// untraced end-to-end runs for the phase timings, the pipeline decomposed
// into its layers' public calls (once untraced, once under spans), then
// each layer's own diagnostics under spans of their own.
func traceBatch(o options, out *Outcome, tr *Tracer) error {
	dir := siteDir(o.dir, 0)
	files, err := logFiles(dir)
	if err != nil {
		return err
	}
	env, err := setupBatch(dir)
	if err != nil {
		return err
	}
	m := out.Metrics
	ctx := context.Background()
	gc0 := readGC()
	var walls []float64
	var res *pipeline.Result
	for i := 0; i < 2; i++ {
		r, wall, err := runStream(files, env, ingestWorkers)
		out.Attempted++
		if err != nil {
			out.Failed++
			return err
		}
		res = r
		walls = append(walls, wall.Seconds())
	}
	gc := readGC().since(gc0)
	m["go.gc_cycles"] = Metric{gc.cycles / 2, "count"}
	m["go.gc_pause_ms"] = Metric{gc.pauseMs / 2, "ms"}
	m["go.alloc_mib"] = Metric{gc.allocMiB / 2, "MiB"}
	st := res.Stats
	m["pipeline.extract_s"] = Metric{st.ExtractTime.Seconds(), "s"}
	m["pipeline.popularity_s"] = Metric{st.PopularityTime.Seconds(), "s"}
	m["pipeline.detect_s"] = Metric{st.DetectTime.Seconds(), "s"}
	m["pipeline.rank_s"] = Metric{st.RankTime.Seconds(), "s"}
	m["pipeline.analyzable_pairs"] = Metric{float64(st.AfterLocalWhitelist), "count"}
	m["pipeline.periodic_pairs"] = Metric{float64(st.Periodic), "count"}
	m["pipeline.reported"] = Metric{float64(st.Reported), "count"}
	out.Reports, out.Funnels = [][]Row{reportRows(res)}, []map[string]int{funnel(st)}

	shards, err := ingest.PlanShards(files, splitsPerFile)
	if err != nil {
		return err
	}
	base, err := decompose(ctx, nil, 0, shards, env)
	if err != nil {
		return err
	}
	tr.baseline("traced.pipeline", base.wall)
	var lay *layerOut
	tr.span("traced.pipeline", 0, func(id int) {
		lay, err = decompose(ctx, tr, id, shards, env)
	})
	if err != nil {
		return err
	}
	events := float64(lay.events)
	m["ingest.ns_per_event"] = Metric{nsPer(lay.ingest, events), "ns"}
	m["ingest.pairs"] = Metric{float64(len(lay.summaries)), "count"}
	m["pipeline.popularity_ns_per_pair"] = Metric{nsPer(lay.popularity, float64(len(lay.summaries))), "ns"}
	m["whitelist.ns_per_pair"] = Metric{nsPer(lay.whitelist, float64(len(lay.summaries))), "ns"}
	na := float64(len(lay.analyzable))
	m["core.detect_ms_per_pair"] = Metric{ms(lay.detect) / na, "ms"}
	m["core.threshold_memo_hit_ratio"] = Metric{1 - float64(lay.memoLen)/na, "ratio"}
	m["indication.us_per_candidate"] = Metric{lay.indication.Seconds() * 1e6 / na, "us"}

	var parse time.Duration
	tr.span("proxylog.ForEachSplit", 0, func(int) {
		start := time.Now()
		for _, sp := range shards {
			if _, err = proxylog.ForEachSplit(sp, 0, func(*proxylog.RecordView) error { return nil }); err != nil {
				return
			}
		}
		parse = time.Since(start)
	})
	if err != nil {
		return err
	}
	m["proxylog.parse_ns_per_event"] = Metric{nsPer(parse, events), "ns"}

	var rankTime time.Duration
	tr.span("ranking.Rank", 0, func(int) { rankTime = timeRank(res, env.cfg.RankPercentile) })
	m["ranking.rank_ms"] = Metric{ms(rankTime), "ms"}

	det := core.NewDetector(env.cfg.Detector)
	var perPair []float64
	tr.span("core.Detect", 0, func(int) { perPair, err = detectEach(det, lay.analyzable) })
	if err != nil {
		return err
	}
	slow := slowestShare(perPair, 0.01)
	m["core.slowest1pct_share"] = Metric{slow, "ratio"}
	buckets := map[core.Bucket]int{}
	lengths := map[int]bool{}
	for _, as := range lay.analyzable {
		b := det.BucketOf(as)
		buckets[b]++
		lengths[b.SeriesLen] = true
	}
	m["core.buckets"] = Metric{float64(len(buckets)), "count"}
	m["core.pairs_per_bucket"] = Metric{na / float64(len(buckets)), "count"}

	var sp spectral
	tr.span("dsp.Scratch", 0, func(int) { sp, err = spectra(det, lay.analyzable) })
	if err != nil {
		return err
	}
	m["dsp.periodogram_us_per_pair"] = Metric{sp.periodogram.Seconds() * 1e6 / float64(sp.pairs), "us"}
	m["dsp.acf_us_per_pair"] = Metric{sp.acf.Seconds() * 1e6 / float64(sp.pairs), "us"}
	m["dsp.nonpow2_share"] = Metric{float64(sp.nonPow2) / float64(sp.pairs), "ratio"}
	perms := core.DefaultConfig().Permutations
	m["dsp.spectral_share"] = Metric{float64(perms+1) * sp.periodogram.Seconds() / lay.detect.Seconds(), "ratio"}

	sizes := make([]float64, len(lay.summaries))
	for i, as := range lay.summaries {
		sizes[i] = float64(as.EventCount())
	}
	m["input.pair_size_p50"] = Metric{percentile(sizes, 50), "count"}
	m["input.pair_size_p99"] = Metric{percentile(sizes, 99), "count"}
	m["input.pair_size_max"] = Metric{percentile(sizes, 100), "count"}
	m["input.analysis_lengths"] = Metric{float64(len(lengths)), "count"}

	// The single-worker baseline: the same run on one core.
	prev := runtime.GOMAXPROCS(1)
	_, single, err := runStream(files, env, 1)
	runtime.GOMAXPROCS(prev)
	out.Attempted++
	if err != nil {
		out.Failed++
		return err
	}
	m["pipeline.parallel_speedup"] = Metric{single.Seconds() / median(walls), "ratio"}

	out.Notes = append(out.Notes,
		fmt.Sprintf("input properties: pair size p50 %.0f / p99 %.0f / max %.0f events over %d pairs; %d analyzable pairs over %d distinct analysis lengths; nonpow2 share %.3f; slowest 1%% of pairs take %.3f of per-pair detect time",
			percentile(sizes, 50), percentile(sizes, 99), percentile(sizes, 100), len(sizes), len(lay.analyzable), len(lengths),
			float64(sp.nonPow2)/float64(sp.pairs), slow),
		fmt.Sprintf("parallel speedup: %.3f s on 1 worker with GOMAXPROCS=1, %.3f s on %d workers", single.Seconds(), median(walls), ingestWorkers))
	return nil
}

func nsPer(d time.Duration, n float64) float64 { return float64(d.Nanoseconds()) / n }

// layerOut holds what the decomposed pipeline produced and how long each
// layer's calls took.
type layerOut struct {
	events                                            int
	summaries, analyzable                             []*timeseries.ActivitySummary
	memoLen                                           int
	ingest, popularity, whitelist, detect, indication time.Duration
	wall                                              time.Duration
}

// decompose runs the pipeline's work as the sequence of its layers' public
// calls (the same calls RunStream makes internally), each timed and, when
// tr is non-nil, recorded as a child span of parent.
func decompose(ctx context.Context, tr *Tracer, parent int, shards []proxylog.Split, env *batchEnv) (*layerOut, error) {
	begin := time.Now()
	lay := &layerOut{}
	timed := func(name string, d *time.Duration, fn func() error) error {
		var err error
		tr.span(name, parent, func(int) {
			start := time.Now()
			err = fn()
			*d = time.Since(start)
		})
		return err
	}
	var ires *ingest.Result
	err := timed("ingest.Ingest", &lay.ingest, func() (err error) {
		ires, err = ingest.Ingest(ctx, shards, ingest.Config{Workers: ingestWorkers, Scale: env.cfg.Scale, Correlator: env.corr})
		return err
	})
	if err != nil {
		return nil, err
	}
	lay.events, lay.summaries = ires.Stats.Records, ires.Summaries
	var destSources map[string]int
	var total int
	err = timed("pipeline.PopularityStats", &lay.popularity, func() (err error) {
		destSources, total, err = pipeline.PopularityStats(ctx, lay.summaries, mapreduce.JobConfig{})
		return err
	})
	if err != nil {
		return nil, err
	}
	var local *whitelist.Local
	timed("whitelist", &lay.whitelist, func() error {
		local = whitelist.NewLocal(env.cfg.LocalTau)
		local.Build(destSources, total)
		for _, as := range lay.summaries {
			if env.cfg.Global.Contains(as.Destination) || local.Contains(as.Destination) {
				continue
			}
			lay.analyzable = append(lay.analyzable, as)
		}
		return nil
	})
	det := core.NewDetector(env.cfg.Detector)
	var results []core.BatchResult
	timed("core.DetectBatch", &lay.detect, func() error {
		memo := core.NewThresholdMemo(0)
		results = det.DetectBatch(lay.analyzable, memo)
		lay.memoLen = memo.Len()
		return nil
	})
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("detect %s|%s: %w", lay.analyzable[i].Source, lay.analyzable[i].Destination, r.Err)
		}
	}
	timed("indication", &lay.indication, func() error {
		tf, store := env.cfg.TokenFilter, novelty.NewStore()
		if tf == nil {
			tf = tokenfilter.New()
		}
		for i, r := range results {
			as := lay.analyzable[i]
			env.cfg.LM.Score(as.Destination)
			if !r.Result.Periodic {
				continue
			}
			if tf.Analyze(as.URLPaths).LikelyBenign {
				continue
			}
			store.Check(as.Source, as.Destination)
		}
		return nil
	})
	lay.wall = time.Since(begin)
	return lay, nil
}

// timeRank ranks the candidates that reached filter 8 of res.
func timeRank(res *pipeline.Result, pct float64) time.Duration {
	var cases []ranking.Case
	for _, c := range res.Candidates {
		if c.SuppressedBy == pipeline.StageNone || c.SuppressedBy == pipeline.StageRankThreshold {
			cases = append(cases, ranking.Case{Source: c.Source, Destination: c.Destination, Score: c.Score})
		}
	}
	start := time.Now()
	ranking.Rank(cases, pct)
	return time.Since(start)
}

// detectEach runs Detect on every pair alone and returns each pair's time
// in seconds.
func detectEach(det *core.Detector, summaries []*timeseries.ActivitySummary) ([]float64, error) {
	times := make([]float64, len(summaries))
	for i, as := range summaries {
		start := time.Now()
		if _, err := det.Detect(as); err != nil {
			return nil, err
		}
		times[i] = time.Since(start).Seconds()
	}
	return times, nil
}

// slowestShare is the share of the total taken by the slowest frac of the
// samples.
func slowestShare(samples []float64, frac float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	k := int(float64(len(s))*frac + 0.999999)
	var top, total float64
	for i, v := range s {
		if i < k {
			top += v
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	return top / total
}

type spectral struct {
	pairs, nonPow2   int
	periodogram, acf time.Duration
}

// spectra times one periodogram and one autocorrelation at the analysis
// length of every analyzable pair the detector would run spectral analysis
// on (enough events, length of at least 4).
func spectra(det *core.Detector, summaries []*timeseries.ActivitySummary) (spectral, error) {
	var sp spectral
	minEvents := det.Config().MinEvents
	s := dsp.NewScratch()
	var pg dsp.Periodogram
	var acf, x []float64
	for _, as := range summaries {
		b := det.BucketOf(as)
		if b.Events < minEvents || b.SeriesLen < 4 {
			continue
		}
		x = x[:0]
		for i := 0; i < b.SeriesLen; i++ {
			x = append(x, float64(i%7&1))
		}
		start := time.Now()
		if err := s.PeriodogramInto(&pg, x, 1); err != nil {
			return sp, err
		}
		mid := time.Now()
		var err error
		if acf, err = s.AutocorrelationInto(acf, x); err != nil {
			return sp, err
		}
		sp.periodogram += mid.Sub(start)
		sp.acf += time.Since(mid)
		sp.pairs++
		if !dsp.IsPowerOfTwo(b.SeriesLen) {
			sp.nonPow2++
		}
	}
	if sp.pairs == 0 {
		return sp, fmt.Errorf("no pair reaches spectral analysis")
	}
	return sp, nil
}
