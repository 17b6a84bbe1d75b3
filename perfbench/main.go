// Command perfbench is the repository's end-to-end benchmark: it builds a
// workload's inputs from a seed, runs the system under test on them in a
// child process, checks the outputs against a reference, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload batch-week --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads are the benchmark's inputs, in the order README.md lists them.
var workloads = []string{"batch-week", "batch-wide-day", "serve-live"}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Row is one ranked report entry, in the shape /ranked serves it.
type Row struct {
	Src     string  `json:"src"`
	Dst     string  `json:"dst"`
	Score   float64 `json:"score"`
	LMScore float64 `json:"lm_score"`
	Period  float64 `json:"period_seconds"`
}

// Outcome is what the measuring child hands back to the parent.
type Outcome struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Notes are human-readable lines (distributions with sample counts,
	// input properties, self times).
	Notes []string `json:"notes"`
	// Reports and Funnels are the batch run's outputs, one per site,
	// Ranked the daemon's final /ranked and Sent the feed lines it was
	// sent; the parent checks them.
	Reports [][]Row          `json:"reports,omitempty"`
	Funnels []map[string]int `json:"funnels,omitempty"`
	Ranked  []Row            `json:"ranked,omitempty"`
	Sent    int              `json:"sent,omitempty"`
	Errors  []string         `json:"errors,omitempty"`
	// Snaps are the serve-live daemon's published ticks, for freshness.
	Snaps []SnapSeen `json:"snaps,omitempty"`
}

func readOutcome(dir string) (*Outcome, error) {
	data, err := os.ReadFile(filepath.Join(dir, "outcome.json"))
	if err != nil {
		return nil, err
	}
	var out Outcome
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("read outcome: %w", err)
	}
	return &out, nil
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

func parseFlags(name string, args []string) (options, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement time per run, seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.dir, "dir", "", "workload input directory (measure mode)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	return o, nil
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "measure":
		err = measureMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "peak":
		err = peakMain(os.Args[2:])
	default:
		err = benchMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// feedLines is how many feed lines a serving run sends: the live phase's
// POSTs, then the flood.
func feedLines(o options) int {
	return o.seconds*int(time.Second/postInterval)*postLines + floodLines
}

// serves reports whether the run drives the daemon: serve-live's metric
// runs, and every traced run.
func serves(o options) bool { return o.workload == "serve-live" || o.trace }

// measureMain is the child process: it runs the system under test on the
// inputs in --dir and writes the Outcome to --dir/outcome.json. Keeping it
// a separate process keeps input generation, the load generator and the
// reference check out of its scheduler and its peak resident memory.
func measureMain(args []string) error {
	o, err := parseFlags("measure", args)
	if err != nil {
		return err
	}
	out := &Outcome{Metrics: map[string]Metric{}}
	switch {
	case o.trace:
		tr := newTracer(fmt.Sprintf("%s-%d", o.workload, o.seed))
		if err = traceBatch(o, out, tr); err == nil {
			out, err = measureServe(o, out, tr)
		}
		if err == nil {
			traceReport(out, tr)
			err = tr.write(filepath.Join(traceDir(), fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)))
		}
	case o.workload == "serve-live":
		out, err = measureServe(o, out, nil)
	default:
		out, err = measureBatch(o)
	}
	if err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.dir, "outcome.json"), data, 0o644)
}

// benchMain generates the inputs, runs the measuring child (and, when the
// run serves, the load against it), checks the outputs and prints the
// result.
func benchMain(args []string) (err error) {
	o, err := parseFlags("perfbench", args)
	if err != nil {
		return err
	}
	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	o.dir, err = os.MkdirTemp(root, fmt.Sprintf("%s-%d-", o.workload, o.seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(o.dir)

	if err := generate(o, feedLines(o)); err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "measure", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--dir", o.dir)
	cmd.Stderr = os.Stderr
	var out *Outcome
	if serves(o) {
		out, err = driveServe(o, cmd)
	} else {
		cmd.Stdout = os.Stderr
		if err = cmd.Run(); err == nil {
			out, err = readOutcome(o.dir)
		}
		if err == nil {
			err = measurePeaks(exe, o, out)
		}
	}
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	problems := out.Errors
	if o.workload != "serve-live" || o.trace {
		p, err := checkBatch(o.dir, out)
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		problems = append(problems, p...)
	}
	if serves(o) {
		p, err := checkServe(o.dir, out)
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		problems = append(problems, p...)
	}
	printOutcome(o, out, problems)
	if len(problems) > 0 {
		return fmt.Errorf("%d output check(s) failed", len(problems))
	}
	return nil
}

func printOutcome(o options, out *Outcome, problems []string) {
	mode := "metric run"
	if o.trace {
		mode = "traced run"
	}
	fmt.Printf("perfbench %s seed %d, %ds, %s\n", o.workload, o.seed, o.seconds, mode)
	for _, n := range out.Notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", out.Attempted, out.Failed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(map[string]any{
		"correct":   len(problems) == 0,
		"attempted": out.Attempted,
		"failed":    out.Failed,
		"metrics":   out.Metrics,
	})
	os.Stdout.Write(buf.Bytes())
}
