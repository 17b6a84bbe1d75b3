package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"baywatch/internal/proxylog"
)

// control is the load process's end of the control channel to the daemon
// process.
type control struct {
	w io.Writer
	r *bufio.Reader
}

// wait returns once the query endpoints serve a tick that analyzed n
// events.
func (c *control) wait(n int) error {
	if _, err := fmt.Fprintf(c.w, "wait %d\n", n); err != nil {
		return err
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		return fmt.Errorf("daemon process: %w", err)
	}
	if reply = strings.TrimSpace(reply); reply != "ok" {
		return fmt.Errorf("daemon process answered %q to wait %d", reply, n)
	}
	return nil
}

// driveServe is the load process of serve-live: it starts the daemon
// process, sends every request, and merges what both sides measured.
func driveServe(o options, cmd *exec.Cmd) (*Outcome, error) {
	feed, err := readLines(filepath.Join(o.dir, serveDir, feedLog))
	if err != nil {
		return nil, err
	}
	need := feedLines(o)
	if len(feed) < need {
		return nil, fmt.Errorf("feed has %d lines, the load needs %d", len(feed), need)
	}
	live, flood := feed[:need-floodLines], feed[need-floodLines:need]

	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lr, err := func() (*liveResult, error) {
		ctl := &control{w: stdin, r: bufio.NewReader(stdout)}
		line, err := ctl.r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("daemon process did not start: %w", err)
		}
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "ready" {
			return nil, fmt.Errorf("daemon process said %q", line)
		}
		preload, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, err
		}
		return runLive(ctl, f[1], f[2], preload, len(feed), live, flood)
	}()
	stdin.Close()
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("daemon process: %w", err)
	}
	out, err := readOutcome(o.dir)
	if err != nil {
		return nil, err
	}
	lr.score(out, o.trace)
	return out, nil
}

// liveResult is what the load process measured.
type liveResult struct {
	preload, live int
	feed          int // lines in the feed file
	shots         []Shot
	queries       []float64 // ms
	queryFails    int
	queryErrs     []string
	floodPosts    int
	floodRates    []float64 // events/s of each burst
	sent          int
	report        []Row
}

// runLive drives the live phase (open-loop POSTs with one closed-loop
// query client beside them), waits for the live events to be analyzed,
// floods, waits for everything to be analyzed, and reads the final
// /ranked.
func runLive(ctl *control, ingestURL, queryURL string, preload, feed int, live, flood [][]byte) (*liveResult, error) {
	lr := &liveResult{preload: preload, live: len(live), feed: feed}
	liveBodies := bodies(live)
	hosts := sources(live)
	ingestClient, queryClient := newClient(), newClient()
	defer ingestClient.CloseIdleConnections()
	defer queryClient.CloseIdleConnections()

	stopQueries := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for i := 0; ; i++ {
			url := queryURL + "/ranked"
			if i%2 == 1 {
				url = queryURL + "/host?src=" + hosts[(i/2)%len(hosts)]
			}
			start := time.Now()
			if _, err := get(queryClient, url); err != nil {
				lr.queryFails++
				if len(lr.queryErrs) < 3 {
					lr.queryErrs = append(lr.queryErrs, err.Error())
				}
			} else {
				lr.queries = append(lr.queries, ms(time.Since(start)))
			}
			select {
			case <-stopQueries:
				return
			case <-time.After(queryThink):
			}
		}
	}()

	lr.shots = openLoop(realClock{}, time.Now(), postInterval, len(liveBodies), func(i int) error {
		return post(ingestClient, ingestURL, liveBodies[i], bytes.Count(liveBodies[i], []byte("\n")))
	})
	err := ctl.wait(preload + len(live))
	close(stopQueries)
	qwg.Wait()
	if err != nil {
		return nil, err
	}

	// The flood is a series of bursts of commitEvery events, each started
	// just after a tick's results are published: every burst runs at the
	// same phase of the tick cycle, between ticks, and ends with the one
	// count-based commit it triggers. The flood rate is the median burst
	// rate, so one slow disk sync does not decide it.
	floodBodies := bodies(flood)
	lr.sent = len(live)
	for len(floodBodies) > 0 {
		burst := floodBodies[:min(commitEvery/postLines, len(floodBodies))]
		floodBodies = floodBodies[len(burst):]
		events := 0
		start := time.Now()
		for _, b := range burst {
			n := bytes.Count(b, []byte("\n"))
			if err := post(ingestClient, ingestURL, b, n); err != nil {
				return nil, fmt.Errorf("flood: %w", err)
			}
			events += n
		}
		lr.floodRates = append(lr.floodRates, float64(events)/time.Since(start).Seconds())
		lr.floodPosts += len(burst)
		lr.sent += events
		if err := ctl.wait(preload + lr.sent); err != nil {
			return nil, err
		}
	}
	data, err := get(newClient(), queryURL+"/ranked?n=1000000")
	if err == nil {
		err = json.Unmarshal(data, &lr.report)
	}
	if err != nil {
		return nil, fmt.Errorf("final /ranked: %w", err)
	}
	return lr, nil
}

// freshness is, for each acknowledged live POST, the time from its due
// time to the first published snapshot that analyzed its last event.
func (lr *liveResult) freshness(snaps []SnapSeen) []float64 {
	var out []float64
	for i, s := range lr.shots {
		if s.Err != nil {
			continue
		}
		need := lr.preload + min((i+1)*postLines, lr.live)
		for _, sn := range snaps {
			if sn.Events >= need {
				out = append(out, float64(sn.At-s.Due.UnixNano())/1e6)
				break
			}
		}
	}
	return out
}

// score adds the load side's accounting and metrics to the daemon
// process's outcome.
func (lr *liveResult) score(out *Outcome, trace bool) {
	out.Ranked, out.Sent = lr.report, lr.sent
	out.Attempted += len(lr.shots) + lr.floodPosts + len(lr.queries) + lr.queryFails
	for _, s := range lr.shots {
		if s.Err != nil {
			out.Failed++
		}
	}
	out.Failed += lr.queryFails
	out.Errors = append(out.Errors, lr.queryErrs...)

	var acks, late []float64
	for _, s := range lr.shots {
		if s.Err == nil {
			acks = append(acks, ms(s.Latency()))
		}
		late = append(late, ms(s.Late()))
	}
	ack, fresh, query := summarize(acks), summarize(lr.freshness(out.Snaps)), summarize(lr.queries)
	floodEPS := median(lr.floodRates)
	out.Notes = append([]string{
		fmt.Sprintf("input: %d preloaded events, %d feed lines; %d live lines in %d POSTs due every %s, %d flood lines", lr.preload, lr.feed, lr.live, len(lr.shots), postInterval, lr.sent-lr.live),
		distNote("ack", ack, "ms"), distNote("fresh", fresh, "ms"), distNote("query", query, "ms"),
		distNote("generator lateness", summarize(late), "ms"),
		fmt.Sprintf("flood: %d bursts, events/s p50 %.0f, min %.0f, max %.0f", len(lr.floodRates), floodEPS, percentile(lr.floodRates, 0), percentile(lr.floodRates, 100)),
	}, out.Notes...)
	// Every serving run reports the daemon's user-facing figures by name.
	// serve-live's metric runs gate on events_per_s (the flood rate) and
	// freshness; the acknowledgement and query latencies, which the batch
	// workloads cannot report, are printed here and recorded as per-layer
	// metrics of every traced run.
	figures := []struct {
		name string
		v    float64
		unit string
	}{
		{"ack_p50_ms", ack.P50, "ms"}, {"ack_p99_ms", ack.Tail, "ms"},
		{"fresh_p50_ms", fresh.P50, "ms"}, {"fresh_p99_ms", fresh.Tail, "ms"},
		{"query_p50_ms", query.P50, "ms"}, {"query_p99_ms", query.Tail, "ms"},
		{"ingest_max_eps", floodEPS, "1/s"},
	}
	m := out.Metrics
	for _, f := range figures {
		out.Notes = append(out.Notes, fmt.Sprintf("serve.%s %.6g %s", f.name, f.v, f.unit))
		if trace {
			m["serve."+f.name] = Metric{f.v, f.unit}
		}
	}
	if trace {
		m["source.http_overhead_ms_p50"] = Metric{ack.P50 - m["source.deliver_ms_p50"].Value, "ms"}
		return
	}
	m["events_per_s"] = Metric{floodEPS, "1/s"}
	m["fresh_p50_ms"] = Metric{fresh.P50, "ms"}
	m["fresh_p99_ms"] = Metric{fresh.Tail, "ms"}
}

func readLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	return lines, nil
}

// bodies groups lines into POST bodies of postLines lines.
func bodies(lines [][]byte) [][]byte {
	var out [][]byte
	for i := 0; i < len(lines); i += postLines {
		out = append(out, bytes.Join(lines[i:min(i+postLines, len(lines))], nil))
	}
	return out
}

// sources lists the distinct client IPs of the lines, in first-seen order.
func sources(lines [][]byte) []string {
	seen := map[string]bool{}
	var out []string
	var v proxylog.RecordView
	for _, l := range lines {
		if proxylog.ParseRecordView(bytes.TrimSuffix(l, []byte("\n")), &v) != nil {
			continue
		}
		if ip := string(v.ClientIP); !seen[ip] {
			seen[ip] = true
			out = append(out, ip)
		}
	}
	return out
}

// newClient is one keep-alive connection. The timeout, far above any
// reply the daemon gives when it works, turns a hung daemon into a failed
// run instead of a hung benchmark.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// post sends one body and checks the daemon acknowledged every line.
func post(c *http.Client, url string, body []byte, lines int) error {
	resp, err := c.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /ingest: %s", resp.Status)
	}
	var ack struct{ Accepted int }
	if err := json.Unmarshal(data, &ack); err != nil {
		return err
	}
	if ack.Accepted != lines {
		return fmt.Errorf("POST /ingest accepted %d of %d lines", ack.Accepted, lines)
	}
	return nil
}

// get fetches url and reads the full body.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// distNote renders a distribution with its sample count.
func distNote(name string, d Dist, unit string) string {
	tail := fmt.Sprintf("p%g", d.TailPct)
	if d.TailPct == 0 {
		tail = "max"
	}
	return fmt.Sprintf("%s: p50 %.3f %s, %s %.3f %s (n=%d)", name, d.P50, unit, tail, d.Tail, unit, d.N)
}
