package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call it made into
// a layer's public function. Spans live in memory until the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Doc    int           `json:"doc"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the part of the span name before the first dot: the repository
// module the call went into, or "bench" for the benchmark's own code.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer records spans. A nil tracer records nothing, so untraced code
// paths pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent, doc int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Doc: doc, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// selfTimes folds the spans into total self time and call count per span
// name. A span's self time is its duration minus its children's durations;
// children of one span never overlap, because every caller is sequential.
func (t *tracer) selfTimes() (self map[string]time.Duration, calls map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	self = map[string]time.Duration{}
	calls = map[string]int{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
		calls[s.Name]++
	}
	return self, calls
}

// total returns the summed duration of the root spans.
func (t *tracer) total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent == 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// lastChildEnd returns, per span ID, the end of its latest-ending child.
func (t *tracer) lastChildEnd() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > out[s.Parent] {
			out[s.Parent] = s.End
		}
	}
	return out
}

// spansNamed returns copies of the spans with the given name.
func (t *tracer) spansNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// spanLine is the written form of a span.
type spanLine struct {
	span
	Layer string `json:"layer"`
}

// write stores the spans as JSON lines, one span per line with its layer.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(spanLine{s, s.layer()}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans stores a traced run's spans under the output directory and
// notes where.
func writeSpans(cfg config, tr *tracer, o *outcome) error {
	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	o.note("spans written to %s", path)
	return nil
}

// us converts a total duration to microseconds per item.
func us(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(max(n, 1))
}
