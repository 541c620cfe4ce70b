package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dart/internal/obs"
	"dart/internal/sse"
)

func TestParseMetrics(t *testing.T) {
	exposition := `# HELP dartd_jobs_submitted_total Jobs accepted.
# TYPE dartd_jobs_submitted_total counter
dartd_jobs_submitted_total 7
dartd_jobs_total{state="succeeded"} 5
dartd_jobs_total{state="failed"} 2
dart_events_dropped_total{subscriber="firehose"} 3
dart_events_dropped_total{subscriber="job"} 1
dart_queue_wait_seconds_bucket{le="+Inf"} 9
not-a-sample
`
	samples, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples["dartd_jobs_submitted_total"]; got != 7 {
		t.Errorf("submitted = %v", got)
	}
	if got := samples[`dartd_jobs_total{state="failed"}`]; got != 2 {
		t.Errorf("failed = %v", got)
	}
	m := newStatModel()
	m.SetMetrics(samples)
	if got := m.metric("dart_events_dropped_total"); got != 4 {
		t.Errorf("summed drop family = %v, want 4", got)
	}
	if got := m.metric("dartd_jobs_total"); got != 7 {
		t.Errorf("summed finished family = %v, want 7", got)
	}
}

// TestModelFoldAndRender drives events through the fold and checks the
// rendered frame carries the live solver state.
func TestModelFoldAndRender(t *testing.T) {
	m := newStatModel()
	events := []obs.Event{
		{Seq: 1, Kind: obs.KindJob, Name: "state", JobID: "job-000001", State: "running"},
		{Seq: 2, Kind: obs.KindQueue, Name: "depth", Depth: 3},
		{Seq: 3, Kind: obs.KindComponent, Name: "plan", JobID: "job-000001", Total: 2},
		{Seq: 4, Kind: obs.KindSolver, Name: "incumbent", JobID: "job-000001",
			Scope: "component:0", Incumbent: 30, Gap: 0.25, Nodes: 128, NodesPerSec: 640},
		{Seq: 5, Kind: obs.KindComponent, Name: "done", JobID: "job-000001", Done: 1, Total: 2},
	}
	for _, ev := range events {
		m.Observe(ev)
	}
	var b strings.Builder
	m.Render(&b, time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC), false)
	frame := b.String()
	for _, want := range []string{
		"queue depth: 3", "seq: 5", "job-000001", "running", "25.0%", "1/2", "solver 1",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b[2J") {
		t.Error("-once frame must not clear the screen")
	}
	if m.LastSeq() != 5 {
		t.Errorf("LastSeq = %d", m.LastSeq())
	}
}

// TestModelSumsNodesAcrossScopes: a job whose two components report 128
// and 50 search nodes shows 178, the figure the bus's progress endpoint
// serves for the same events, not the larger scope's 128.
func TestModelSumsNodesAcrossScopes(t *testing.T) {
	events := []obs.Event{
		{Seq: 1, Kind: obs.KindJob, Name: "state", JobID: "job-000001", State: "running"},
		{Seq: 2, Kind: obs.KindSolver, Name: "progress", JobID: "job-000001", Scope: "component:0", Gap: 0.5, Nodes: 128},
		{Seq: 3, Kind: obs.KindSolver, Name: "progress", JobID: "job-000001", Scope: "component:1", Gap: 0.25, Nodes: 50},
	}
	m := newStatModel()
	bus := obs.NewBus(obs.BusConfig{})
	for _, ev := range events {
		m.Observe(ev)
		bus.Publish(ev)
	}
	prog, _ := bus.Progress("job-000001")
	if prog.Nodes != 178 {
		t.Fatalf("progress endpoint nodes = %d, want 178", prog.Nodes)
	}
	var b strings.Builder
	m.Render(&b, time.Now(), false)
	var row string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "job-000001") {
			row = line
		}
	}
	if fields := strings.Fields(row); len(fields) < 5 || fields[4] != "178" {
		t.Fatalf("job row %q, want 178 nodes in the NODES column", row)
	}
}

// TestModelKeepsRecentJobs: the table keeps at most maxJobRows jobs, most
// recent first.
func TestModelKeepsRecentJobs(t *testing.T) {
	m := newStatModel()
	for i := 1; i <= maxJobRows+4; i++ {
		m.Observe(obs.Event{Seq: uint64(i), Kind: obs.KindJob, Name: "state", JobID: fmt.Sprintf("job-%06d", i), State: "running"})
	}
	var b strings.Builder
	m.Render(&b, time.Now(), false)
	var ids []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "job-") {
			ids = append(ids, strings.Fields(line)[0])
		}
	}
	if len(ids) != maxJobRows || ids[0] != fmt.Sprintf("job-%06d", maxJobRows+4) || ids[len(ids)-1] != "job-000005" {
		t.Fatalf("rendered jobs %v, want %d rows from job-%06d down to job-000005", ids, maxJobRows, maxJobRows+4)
	}
}

// TestTailEventsAgainstServer checks the SSE tailer end to end against a
// fake dartd endpoint, including clean EOF handling.
func TestTailEventsAgainstServer(t *testing.T) {
	bus := obs.NewBus(obs.BusConfig{})
	bus.Publish(obs.Event{Kind: obs.KindJob, Name: "state", JobID: "job-000009", State: "succeeded"})
	bus.Publish(obs.Event{Kind: obs.KindQueue, Name: "depth", Depth: 1})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, ev := range bus.Replay() {
			_ = writeSSE(w, ev)
		}
	}))
	defer ts.Close()

	m := newStatModel()
	if err := tailEvents(context.Background(), ts.URL, m); err != nil {
		t.Fatalf("tailEvents: %v", err)
	}
	if m.LastSeq() != 2 {
		t.Errorf("LastSeq = %d, want 2", m.LastSeq())
	}
	var b strings.Builder
	m.Render(&b, time.Now(), false)
	if !strings.Contains(b.String(), "job-000009") {
		t.Errorf("frame missing tailed job:\n%s", b.String())
	}
}

// writeSSE mirrors the service's frame shape for the fake endpoint.
func writeSSE(w http.ResponseWriter, ev obs.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return sse.WriteEvent(w, "", string(ev.Kind), data)
}
