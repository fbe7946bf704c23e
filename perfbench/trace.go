package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer boundary. Parent is the ID of the enclosing span (-1 for a
// root); Op is the op the span belongs to (-1 when the layer cannot tell,
// as for journal IO issued by the daemon's own goroutines).
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1e3 }

// layer is the span name's prefix up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed code paths carry
// only a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }

// open starts a span at start and returns its ID for close and for
// children. The end is filled in by close.
func (t *tracer) open(name string, op, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, StartUS: t.us(start)})
	return id
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].EndUS = t.us(end)
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	id := t.open(name, op, parent, start)
	t.close(id, end)
	return id
}

// durations returns the durations in ms of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfMS sums each layer's self time: a span's duration minus the part of
// it that its children cover.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		covered := 0.0
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartUS < cs[b].StartUS })
		hi := s.StartUS // end of the covered prefix so far
		for _, c := range cs {
			a, b := max(c.StartUS, hi), min(c.EndUS, s.EndUS)
			if b > a {
				covered += b - a
				hi = b
			}
		}
		self[s.layer()] += (s.EndUS - s.StartUS - covered) / 1e3
	}
	return self
}

// dump writes the spans as JSON to path, creating its directory.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
