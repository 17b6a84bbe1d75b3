package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Tracer records spans in memory around calls into the program; they are
// written out once, when the run ends. A nil *Tracer records nothing, so
// the untraced runs pay only a nil check per call.
type Tracer struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []Span
	// baselines holds, per root span name, the wall time of the same work
	// run without spans.
	baselines map[string]time.Duration
}

func newTracer(run string) *Tracer {
	return &Tracer{run: run, epoch: time.Now(), baselines: map[string]time.Duration{}}
}

// baseline records the untraced wall time of the work under root.
func (t *Tracer) baseline(root string, d time.Duration) {
	t.mu.Lock()
	t.baselines[root] = d
	t.mu.Unlock()
}

// span times fn as a child of parent (0 for a root span) and returns the
// new span's ID.
func (t *Tracer) span(name string, parent int, fn func(id int)) {
	if t == nil {
		fn(0)
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Run: t.run})
	t.mu.Unlock()
	start := time.Since(t.epoch)
	fn(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *Tracer) write(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
