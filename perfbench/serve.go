package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/source"
)

// The serve-live daemon settings and load. Live POSTs carry postLines
// lines each and are due every postInterval on one keep-alive connection
// (open loop); the flood then sends floodLines more lines closed loop on
// the same connection, in bursts of commitEvery lines.
const (
	postLines    = 10
	postInterval = 10 * time.Millisecond
	floodLines   = 32000
	tickInterval = 2 * time.Second
	commitEvery  = 4000
	// queryThink is the query client's pause between a reply and its next
	// request (closed loop).
	queryThink = 5 * time.Millisecond
	// replaySeconds is how much of the live feed the traced run replays
	// directly against an Engine.
	replaySeconds = 10
	// serveSetupReps is how many times a serving run sets the daemon up;
	// setup_s is the median.
	serveSetupReps = 3
	// pollEvery is how often the benchmark samples Daemon.Snapshot().
	pollEvery = time.Millisecond
)

// The serve-live run is two processes. The daemon process (measureServe)
// sets the daemon up and runs it; the load process (driveServe, the
// parent) sends every request. They talk over the daemon process's
// stdin/stdout, one line per message:
//
//	daemon → load: "ready <ingest URL> <query URL> <preloaded events>"
//	load → daemon: "wait <n>"
//	daemon → load: "ok" once a tick that analyzed n events is stored and
//	               the query endpoints serve its results
//
// Closing the daemon's stdin ends the run; the daemon process then stops
// the daemon and writes its Outcome, including every snapshot it saw.

// timedIngest wraps the HTTPIngest connector so every Sink.Deliver (the
// daemon's apply, and its count-based commit) is timed from outside.
type timedIngest struct {
	*source.HTTPIngest
	mu      sync.Mutex
	deliver []time.Duration
}

type timedSink struct {
	source.Sink
	t *timedIngest
}

func (s timedSink) Deliver(b source.Batch) error {
	start := time.Now()
	err := s.Sink.Deliver(b)
	d := time.Since(start)
	s.t.mu.Lock()
	s.t.deliver = append(s.t.deliver, d)
	s.t.mu.Unlock()
	return err
}

func (t *timedIngest) Run(ctx context.Context, resume source.Position, sink source.Sink) error {
	return t.HTTPIngest.Run(ctx, resume, timedSink{sink, t})
}

func (t *timedIngest) deliveries() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.deliver...)
}

// SnapSeen is one published tick as the benchmark saw it: when it was
// first observed (Unix nanoseconds) and how many events it analyzed.
type SnapSeen struct {
	At     int64 `json:"at"`
	Events int   `json:"events"`
}

// liveDaemon is one running daemon and what the benchmark watches on it.
type liveDaemon struct {
	d      *source.Daemon
	ingest *timedIngest
	cancel context.CancelFunc
	done   chan error
	// ingestURL and queryURL are the loopback endpoints.
	ingestURL, queryURL string

	mu    sync.Mutex
	snaps []SnapSeen // every distinct published snapshot, in order
	stop  chan struct{}
	wg    sync.WaitGroup
}

// startDaemon opens the daemon on stateDir and runs it until its first
// tick has published a snapshot.
func startDaemon(stateDir string, cfg pipeline.Config) (*liveDaemon, error) {
	ti := &timedIngest{HTTPIngest: &source.HTTPIngest{Addr: "127.0.0.1:0", SourceName: liveSource}}
	d, err := source.NewDaemon(source.DaemonConfig{
		Engine:       source.Config{StateDir: stateDir, Pipeline: cfg},
		Connectors:   []source.Connector{ti},
		TickInterval: tickInterval,
		CommitEvery:  commitEvery,
		QueryAddr:    "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ld := &liveDaemon{d: d, ingest: ti, cancel: cancel, done: make(chan error, 1), stop: make(chan struct{})}
	go func() { ld.done <- d.Run(ctx) }()
	for d.Snapshot() == nil || ti.BoundAddr() == "" || d.QueryBoundAddr() == "" {
		select {
		case err := <-ld.done:
			cancel()
			return nil, fmt.Errorf("daemon stopped during start-up: %v", err)
		case <-time.After(pollEvery):
		}
	}
	ld.ingestURL = "http://" + ti.BoundAddr() + "/ingest"
	ld.queryURL = "http://" + d.QueryBoundAddr()
	ld.wg.Add(1)
	go ld.watch()
	return ld, nil
}

// watch records the time each new snapshot is first seen and how many
// events it analyzed.
func (ld *liveDaemon) watch() {
	defer ld.wg.Done()
	var last *source.TickResult
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		if s := ld.d.Snapshot(); s != last {
			last = s
			ld.mu.Lock()
			ld.snaps = append(ld.snaps, SnapSeen{At: time.Now().UnixNano(), Events: s.Result.Stats.InputEvents})
			ld.mu.Unlock()
		}
		select {
		case <-ld.stop:
			return
		case <-t.C:
		}
	}
}

// waitFor polls cond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
	return true
}

// seen reports whether the watcher has seen a snapshot that analyzed n
// events.
func (ld *liveDaemon) seen(n int) bool {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return len(ld.snaps) > 0 && ld.snaps[len(ld.snaps)-1].Events >= n
}

// publishedTick is the tick whose results the query endpoints serve, as
// /status reports it.
func (ld *liveDaemon) publishedTick() int64 {
	rec := httptest.NewRecorder()
	ld.d.QueryHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var st struct {
		LastTick int64 `json:"last_tick"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return -1
	}
	return st.LastTick
}

func (ld *liveDaemon) close() error {
	close(ld.stop)
	ld.wg.Wait()
	ld.cancel()
	return <-ld.done
}

// serve answers the load process's control messages until stdin closes.
func (ld *liveDaemon) serve(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || f[0] != "wait" {
			return fmt.Errorf("bad control message %q", sc.Text())
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("bad control message %q", sc.Text())
		}
		reply := "timeout"
		if waitFor(time.Minute, func() bool { return ld.seen(n) }) {
			tick := ld.d.Snapshot().Tick
			if waitFor(time.Minute, func() bool { return ld.publishedTick() >= tick }) {
				reply = "ok"
			}
		}
		if _, err := fmt.Fprintln(out, reply); err != nil {
			return err
		}
	}
	return sc.Err()
}

// measureServe is the daemon process of a run that serves: serve-live's
// metric run, and the serving half of every traced run (tr non-nil), which
// first replays part of the feed directly against an Engine.
func measureServe(o options, out *Outcome, tr *Tracer) (*Outcome, error) {
	dir := filepath.Join(o.dir, serveDir)
	state := filepath.Join(dir, stateDir)
	if tr != nil {
		if err := traceReplay(dir, out, tr); err != nil {
			return out, err
		}
	}
	// Each start-up begins from a collected heap returned to the OS, with
	// the peak RSS reset, so each start-up's peak is its own.
	var setups, startPeaks []float64
	var ld *liveDaemon
	for i := 0; i < serveSetupReps; i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		start := time.Now()
		cfg, err := pipelineConfig()
		if err != nil {
			return nil, err
		}
		if ld, err = startDaemon(state, cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		startPeaks = append(startPeaks, peakRSSMiB())
		if i < serveSetupReps-1 {
			if err := ld.close(); err != nil {
				return nil, err
			}
		}
	}
	preload := ld.d.Snapshot().Result.Stats.InputEvents
	fmt.Printf("ready %s %s %d\n", ld.ingestURL, ld.queryURL, preload)
	if err := ld.serve(os.Stdin, os.Stdout); err != nil {
		ld.close()
		return out, err
	}
	// The serving daemon's peak from its start-up to the drain. Unlike a
	// start-up's, it moves by a fifth between runs of one seed, with
	// whether collections happen to run during a tick's transients.
	servePeak := peakRSSMiB()
	st := ld.d.Engine().Stats()
	if ld.d.Degraded() {
		out.Failed++
		out.Errors = append(out.Errors, "daemon degraded")
	}
	if tr != nil {
		queryLayer(ld, out)
	}
	if err := ld.close(); err != nil {
		return out, err
	}
	if st.LateDropped != 0 {
		out.Errors = append(out.Errors, fmt.Sprintf("%d late events dropped; the freshness rule needs none", st.LateDropped))
	}
	if st.Evicted != 0 {
		out.Errors = append(out.Errors, fmt.Sprintf("%d pairs evicted; the freshness rule needs none", st.Evicted))
	}
	out.Snaps = ld.snaps
	deliver := summarize(msAll(ld.ingest.deliveries()))
	out.Notes = append(out.Notes, distNote("deliver", deliver, "ms"),
		fmt.Sprintf("daemon setup: p50 %.3f s (n=%d)", median(setups), len(setups)),
		fmt.Sprintf("peak RSS: start-up p50 %.1f MiB (n=%d), serving %.1f MiB", median(startPeaks), len(startPeaks), servePeak))
	if tr != nil {
		out.Metrics["source.deliver_ms_p50"] = Metric{deliver.P50, "ms"}
		out.Metrics["source.deliver_ms_p99"] = Metric{deliver.Tail, "ms"}
		out.Metrics["serve.peak_rss_mib"] = Metric{servePeak, "MiB"}
	} else {
		out.Metrics["setup_s"] = Metric{median(setups), "s"}
		out.Metrics["peak_rss_mib"] = Metric{median(startPeaks), "MiB"}
	}
	return out, nil
}

// queryLayer times the query handlers directly (httptest, no network).
func queryLayer(ld *liveDaemon, out *Outcome) {
	h := ld.d.QueryHandler()
	var hosts []string
	for src := range ld.d.Engine().Timelines() {
		hosts = append(hosts, src)
	}
	sort.Strings(hosts)
	timeReq := func(url string) float64 {
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, url, nil))
		}
		return time.Since(start).Seconds() * 1e6 / reps
	}
	out.Metrics["source.query_us_ranked"] = Metric{timeReq("/ranked"), "us"}
	out.Metrics["source.query_us_host"] = Metric{timeReq("/host?src=" + hosts[len(hosts)/2]), "us"}
}

// traceReplay replays the first replaySeconds of the feed directly against
// an Engine opened on a copy of the preloaded state, with the live phase's
// batch size and commit/tick cadence: once untraced, then once under
// spans.
func traceReplay(dir string, out *Outcome, tr *Tracer) error {
	feed, err := readLines(filepath.Join(dir, feedLog))
	if err != nil {
		return err
	}
	cfg, err := pipelineConfig()
	if err != nil {
		return err
	}
	state := filepath.Join(dir, stateDir)
	batches := eventBatches(feed[:min(len(feed), replaySeconds*int(time.Second/postInterval)*postLines)])
	untraced, _, err := replay(nil, 0, state, filepath.Join(dir, "replay-untraced"), cfg, batches)
	if err != nil {
		return err
	}
	tr.baseline("traced.replay", untraced)
	var rs *replayStats
	tr.span("traced.replay", 0, func(id int) {
		_, rs, err = replay(tr, id, state, filepath.Join(dir, "replay-traced"), cfg, batches)
	})
	if err != nil {
		return err
	}
	m := out.Metrics
	commits, ticks := summarize(msAll(rs.commits)), summarize(msAll(rs.ticks))
	m["source.recover_s"] = Metric{rs.recover.Seconds(), "s"}
	m["source.warm_tick_s"] = Metric{rs.warmTick.Seconds(), "s"}
	m["source.commit_ms_p50"] = Metric{commits.P50, "ms"}
	m["source.commit_ms_p99"] = Metric{commits.Tail, "ms"}
	m["source.checkpoint_mib"] = Metric{rs.checkpointMiB, "MiB"}
	m["source.tick_ms_p50"] = Metric{ticks.P50, "ms"}
	m["source.tick_ms_p99"] = Metric{ticks.Tail, "ms"}
	m["source.tick_dirty_pairs_p50"] = Metric{median(rs.dirty), "count"}
	m["source.stats_ms"] = Metric{median(msAll(rs.stats)), "ms"}
	out.Notes = append(out.Notes,
		fmt.Sprintf("replay: %d batches of %d events, commit every %d events, tick every %d batches", len(batches), postLines, commitEvery, ticksEvery()),
		distNote("replay commit", commits, "ms"), distNote("replay tick", ticks, "ms"))
	return nil
}

// ticksEvery is the tick cadence in live batches.
func ticksEvery() int { return int(tickInterval / postInterval) }

// eventBatches parses lines into source batches of postLines events, the
// way HTTPIngest delivers each POST.
func eventBatches(lines [][]byte) []source.Batch {
	var out []source.Batch
	var v proxylog.RecordView
	var seq int64
	for i := 0; i < len(lines); i += postLines {
		var evs []source.Event
		for _, l := range lines[i:min(i+postLines, len(lines))] {
			if proxylog.ParseRecordView(bytes.TrimSuffix(l, []byte("\n")), &v) != nil {
				continue
			}
			evs = append(evs, source.Event{Source: string(v.ClientIP), Destination: string(v.Host), TS: v.Timestamp, Path: string(v.Path)})
		}
		seq += int64(len(evs))
		out = append(out, source.Batch{Source: liveSource, Events: evs, Pos: source.Position{Records: seq}})
	}
	return out
}

type replayStats struct {
	recover, warmTick     time.Duration
	commits, ticks, stats []time.Duration
	dirty                 []float64
	checkpointMiB         float64
}

// replay copies the preloaded state to dir, opens an Engine on it, runs
// the first tick, then applies the batches with the daemon's cadence:
// a commit whenever commitEvery events are uncommitted, and a commit plus
// a tick every ticksEvery batches. It returns the wall time of the whole
// replay.
func replay(tr *Tracer, parent int, state, dir string, cfg pipeline.Config, batches []source.Batch) (time.Duration, *replayStats, error) {
	if err := copyDir(state, dir); err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	rs := &replayStats{}
	begin := time.Now()
	var eng *source.Engine
	var err error
	timed := func(name string, fn func()) time.Duration {
		var d time.Duration
		tr.span(name, parent, func(int) {
			start := time.Now()
			fn()
			d = time.Since(start)
		})
		return d
	}
	rs.recover = timed("source.OpenEngine", func() { eng, err = source.OpenEngine(source.Config{StateDir: dir, Pipeline: cfg}) })
	if err != nil {
		return 0, nil, err
	}
	rs.warmTick = timed("source.Engine.Tick.first", func() { _, err = eng.Tick(ctx) })
	if err != nil {
		return 0, nil, err
	}
	commit := func() error {
		rs.commits = append(rs.commits, timed("source.Engine.Commit", func() { err = eng.Commit() }))
		return err
	}
	for i, b := range batches {
		timed("source.Engine.Apply", func() { eng.Apply(b) })
		if eng.Uncommitted() >= commitEvery {
			if err := commit(); err != nil {
				return 0, nil, err
			}
		}
		if (i+1)%ticksEvery() == 0 {
			if err := commit(); err != nil {
				return 0, nil, err
			}
			var res *source.TickResult
			rs.ticks = append(rs.ticks, timed("source.Engine.Tick", func() { res, err = eng.Tick(ctx) }))
			if err != nil {
				return 0, nil, err
			}
			rs.dirty = append(rs.dirty, float64(res.Dirty))
			rs.stats = append(rs.stats, timed("source.Engine.Stats", func() { eng.Stats() }))
		}
	}
	wall := time.Since(begin)
	if fi, err := os.Stat(filepath.Join(dir, "checkpoint.bin")); err == nil {
		rs.checkpointMiB = float64(fi.Size()) / (1 << 20)
	}
	return wall, rs, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
