package main

import (
	"bufio"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"

	"baywatch/internal/ingest"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
)

// checkBatch compares each site's report and funnel with the batch
// reference: pipeline.Run over proxylog.ReadAll records, same config.
func checkBatch(dir string, out *Outcome) ([]string, error) {
	dirs, err := siteDirs(dir)
	if err != nil {
		return nil, err
	}
	if len(out.Funnels) != len(dirs) {
		return []string{fmt.Sprintf("%d of %d sites ran", len(out.Funnels), len(dirs))}, nil
	}
	var problems []string
	for i, site := range dirs {
		files, err := logFiles(site)
		if err != nil {
			return nil, err
		}
		env, err := setupBatch(site)
		if err != nil {
			return nil, err
		}
		var records []*proxylog.Record
		for _, f := range files {
			recs, err := proxylog.ReadAll(f)
			if err != nil {
				return nil, err
			}
			records = append(records, recs...)
		}
		ref, err := pipeline.Run(context.Background(), records, env.corr, env.cfg)
		if err != nil {
			return nil, err
		}
		if want := funnel(ref.Stats); !maps.Equal(want, out.Funnels[i]) {
			problems = append(problems, fmt.Sprintf("site %d: funnel %v, reference %v", i, out.Funnels[i], want))
		}
		for _, p := range diffRows(out.Reports[i], reportRows(ref)) {
			problems = append(problems, fmt.Sprintf("site %d: %s", i, p))
		}
	}
	return problems, nil
}

// checkServe compares the daemon's final /ranked rows with
// pipeline.RunStream over the preload plus the live lines sent, with no
// DHCP correlation (serve mode keys sources on the client IP).
func checkServe(dir string, out *Outcome) ([]string, error) {
	if out.Sent == 0 {
		return []string{"no live lines were sent"}, nil
	}
	dir = filepath.Join(dir, serveDir)
	sent := filepath.Join(dir, "sent.log")
	if err := copyLines(filepath.Join(dir, feedLog), sent, out.Sent); err != nil {
		return nil, err
	}
	cfg, err := pipelineConfig()
	if err != nil {
		return nil, err
	}
	shards, err := ingest.PlanShards([]string{filepath.Join(dir, preloadLog), sent}, 1)
	if err != nil {
		return nil, err
	}
	ref, err := pipeline.RunStream(context.Background(), shards, nil, cfg, pipeline.StreamOptions{Workers: ingestWorkers})
	if err != nil {
		return nil, err
	}
	return diffRows(out.Ranked, reportRows(ref)), nil
}

// copyLines writes the first n lines of src to dst.
func copyLines(src, dst string, n int) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for i := 0; i < n && sc.Scan(); i++ {
		w.Write(sc.Bytes())
		w.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// diffRows reports how got differs from the reference rows.
func diffRows(got, want []Row) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("report has %d rows, reference %d", len(got), len(want))}
	}
	var problems []string
	for i := range got {
		if got[i] != want[i] {
			problems = append(problems, fmt.Sprintf("row %d: %+v, reference %+v", i+1, got[i], want[i]))
		}
	}
	return problems
}
