package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dart/internal/obs"
)

// statModel folds the event firehose and periodic /metrics scrapes into
// the console frame. All methods are safe for the two feeding goroutines
// (SSE tailer, metrics poller) plus the renderer.
type statModel struct {
	mu        sync.Mutex
	kindCount map[obs.EventKind]uint64
	lastSeq   uint64
	depth     int
	jobs      *obs.ProgressFold // the same per-job fold the progress endpoint serves
	metrics   map[string]float64
	streamErr string
}

// maxJobRows bounds both the retained fold state and the rendered table.
const maxJobRows = 16

func newStatModel() *statModel {
	return &statModel{
		kindCount: make(map[obs.EventKind]uint64),
		jobs:      obs.NewProgressFold(maxJobRows),
		metrics:   make(map[string]float64),
	}
}

// Observe folds one firehose event.
func (m *statModel) Observe(ev obs.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.kindCount[ev.Kind]++
	if ev.Seq > m.lastSeq {
		m.lastSeq = ev.Seq
	}
	if ev.Kind == obs.KindQueue && ev.Name == "depth" {
		m.depth = ev.Depth
	}
	m.jobs.Observe(ev)
}

// LastSeq reports the highest event sequence number seen (the reconnect
// resume point).
func (m *statModel) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeq
}

// SetMetrics replaces the last /metrics scrape.
func (m *statModel) SetMetrics(samples map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = samples
}

// SetStreamErr records the firehose state shown in the header ("" = live).
func (m *statModel) SetStreamErr(msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.streamErr = msg
}

// metric sums every sample of one family (labelled series included).
func (m *statModel) metric(family string) float64 {
	total := 0.0
	for name, v := range m.metrics {
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return total
}

// Render draws one frame. When clear is set the frame starts with the
// ANSI clear-screen/home sequence (the live top-like mode); -once omits
// it so the output pipes cleanly.
func (m *statModel) Render(w io.Writer, now time.Time, clear bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if clear {
		fmt.Fprint(w, "\x1b[2J\x1b[H")
	}
	stream := "live"
	if m.streamErr != "" {
		stream = m.streamErr
	}
	fmt.Fprintf(w, "dartstat  %s  stream: %s  seq: %d  queue depth: %d\n",
		now.Format("15:04:05"), stream, m.lastSeq, m.depth)

	fmt.Fprint(w, "events:")
	for _, k := range obs.EventKinds {
		fmt.Fprintf(w, "  %s %d", k, m.kindCount[k])
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "totals: submitted %.0f  succeeded %.0f  failed %.0f  bb nodes %.0f  spans dropped %.0f  events dropped %.0f\n",
		m.metric("dartd_jobs_submitted_total"),
		m.metric(`dartd_jobs_total{state="succeeded"}`),
		m.metric(`dartd_jobs_total{state="failed"}`),
		m.metric("dart_bb_nodes_total"),
		m.metric("dart_trace_spans_dropped_total"),
		m.metric("dart_events_dropped_total"))

	rows := m.jobs.All()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].LastSeq > rows[j].LastSeq })
	fmt.Fprintf(w, "\n%-12s %-18s %10s %12s %10s %10s %9s\n",
		"JOB", "STATE", "GAP", "INCUMBENT", "NODES", "NODES/S", "COMP")
	for _, r := range rows {
		comp := "-"
		if r.ComponentsTotal > 0 {
			comp = strconv.Itoa(r.ComponentsDone) + "/" + strconv.Itoa(r.ComponentsTotal)
		}
		fmt.Fprintf(w, "%-12s %-18s %9.1f%% %12.4g %10d %10.0f %9s\n",
			r.JobID, r.State, r.Gap*100, r.Incumbent, r.Nodes, r.NodesPerSec, comp)
	}
}

// parseMetrics reads Prometheus text exposition into sample-name → value.
// The full sample name includes labels, so callers can address one series
// or sum a family.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything after the last space; histograms and
		// labelled series keep their full name (labels may contain spaces
		// only inside quoted values, which the last-space split survives
		// for this repo's exposition).
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[idx+1:]), 64)
		if err != nil {
			continue // timestamps or exotic values: skip, not fatal
		}
		out[strings.TrimSpace(line[:idx])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
