package main

// Benchmark-side tracing. Spans are recorded only here, around calls the
// benchmark makes — HTTP requests and in-process calls into each layer's
// public functions — never inside the program. Every span carries the ID
// of the scripted request whose input it ran on, so a layer's self time
// can be taken on the same input as the call above it. Spans are kept in
// memory and written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

type span struct {
	Trace int64  `json:"trace"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the tracer was created
	Dur   int64  `json:"dur_ns"`
	// Calls is how many calls the span covers (timing loops of very short
	// calls record one span per loop); 1 otherwise.
	Calls int `json:"calls"`
}

type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

type spanHandle struct {
	t     *tracer
	trace int64
	name  string
	start time.Time
}

// start opens a span; on a nil tracer it returns a handle whose end does
// nothing, so untraced runs pay no more than a nil check.
func (t *tracer) start(trace int64, name string) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	return spanHandle{t: t, trace: trace, name: name, start: time.Now()}
}

func (h spanHandle) end() { h.endN(1) }

func (h spanHandle) endN(calls int) {
	if h.t == nil {
		return
	}
	d := time.Since(h.start)
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, span{Trace: h.trace, Name: h.name, Start: int64(h.start.Sub(h.t.base)), Dur: int64(d), Calls: calls})
	h.t.mu.Unlock()
}

// byName groups per-call durations (ns) by span name, and by trace too.
func (t *tracer) byName() (map[string][]float64, map[string]map[int64]float64) {
	all := make(map[string][]float64)
	per := make(map[string]map[int64]float64)
	for _, s := range t.spans {
		d := float64(s.Dur) / float64(s.Calls)
		all[s.Name] = append(all[s.Name], d)
		if per[s.Name] == nil {
			per[s.Name] = make(map[int64]float64)
		}
		per[s.Name][s.Trace] += float64(s.Dur)
	}
	return all, per
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}
