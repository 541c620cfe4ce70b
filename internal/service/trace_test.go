package service

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"dart/internal/obs"
)

// collectNames flattens a span tree into a name multiset.
func collectNames(node *obs.SpanNode, into map[string]int) {
	if node == nil {
		return
	}
	into[node.Name]++
	for _, c := range node.Children {
		collectNames(c, into)
	}
}

// TestJobTraceEndpoint runs one real pipeline job with tracing on and
// checks GET /v1/jobs/{id}/trace returns a span tree covering every
// pipeline stage plus at least one solved MILP component.
func TestJobTraceEndpoint(t *testing.T) {
	tracer := obs.New(obs.Config{Capacity: 8})
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: tracer})

	view, _ := postJob(t, ts.URL, JobSpec{Document: runningExampleErrorHTML()})
	done := pollJob(t, ts.URL, view.ID)
	if done.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.TraceID == "" {
		t.Fatal("finished job has no trace_id")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace endpoint: %d %s", resp.StatusCode, body)
	}
	var payload struct {
		TraceID string        `json:"trace_id"`
		Spans   int           `json:"spans"`
		Tree    *obs.SpanNode `json:"tree"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.TraceID != done.TraceID {
		t.Errorf("trace endpoint returned trace %s, job points at %s", payload.TraceID, done.TraceID)
	}

	names := map[string]int{}
	collectNames(payload.Tree, names)
	for _, want := range []string{
		"job", "stage.convert", "stage.wrapper", "stage.dbgen", "stage.check",
		"stage.solver", "stage.prepare", "stage.resolve", "repair.component",
	} {
		if names[want] == 0 {
			t.Errorf("span tree misses %q (got %v)", want, names)
		}
	}
	if payload.Tree.Attrs["job_id"] != view.ID {
		t.Errorf("root span job_id = %v, want %s", payload.Tree.Attrs["job_id"], view.ID)
	}
}

// TestDebugTracesEndpoint checks the slowest-traces listing after a couple
// of jobs.
func TestDebugTracesEndpoint(t *testing.T) {
	tracer := obs.New(obs.Config{Capacity: 8})
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: tracer})
	for i := 0; i < 2; i++ {
		view, _ := postJob(t, ts.URL, JobSpec{Document: runningExampleErrorHTML()})
		pollJob(t, ts.URL, view.ID)
	}

	resp, err := http.Get(ts.URL + "/debug/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Count  int `json:"count"`
		Traces []struct {
			TraceID    string  `json:"trace_id"`
			JobID      string  `json:"job_id"`
			DurationMS float64 `json:"duration_ms"`
			Spans      int     `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Count != 1 || len(payload.Traces) != 1 {
		t.Fatalf("asked for n=1, got %d traces", len(payload.Traces))
	}
	row := payload.Traces[0]
	if row.TraceID == "" || row.JobID == "" || row.Spans == 0 {
		t.Errorf("summary row incomplete: %+v", row)
	}

	// Bad n is a 400.
	resp400, err := http.Get(ts.URL + "/debug/traces?n=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp400.Body.Close()
	if resp400.StatusCode != http.StatusBadRequest {
		t.Errorf("n=zero: status %d, want 400", resp400.StatusCode)
	}
}

// TestDefaultTracerFeedsStageHistograms: a server configured without a
// tracer still traces every job (New installs a default tracer), serves
// its span tree, and folds the job's stage spans into the stage
// histograms — one observation each for one job.
func TestDefaultTracerFeedsStageHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	view, _ := postJob(t, ts.URL, JobSpec{Document: runningExampleErrorHTML()})
	done := pollJob(t, ts.URL, view.ID)
	if done.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.TraceID == "" {
		t.Fatal("finished job has no trace_id")
	}
	for _, path := range []string{"/v1/jobs/" + view.ID + "/trace", "/debug/traces"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`dartd_stage_seconds_count{stage="wrapper"}`,
		`dartd_stage_seconds_count{stage="solver"}`,
		"dart_prepare_seconds_count",
		"dart_resolve_seconds_count",
	} {
		if got := metricValue(t, string(text), name); got != 1 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
}

// TestPprofGated checks /debug/pprof/ is a 404 by default and serves the
// index when enabled.
func TestPprofGated(t *testing.T) {
	_, tsOff := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	_, tsOn := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
