package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dart/internal/obs"
	"dart/internal/sse"
)

// sseGet opens one SSE stream and fails the test on a non-200 answer.
func sseGet(t *testing.T, url string) (*sse.Reader, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return sse.NewReader(resp.Body), func() { resp.Body.Close() }
}

// TestJobEventStreamMidJob is the stream lifecycle test: subscribe while
// the job is running, see the snapshot frame and the replayed submitted →
// running transitions, then the live terminal event, then a clean close.
func TestJobEventStreamMidJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
		select {
		case started <- spec.Scenario:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &ResultJSON{}, nil
	}
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Runner:  runner,
		Bus:     obs.NewBus(obs.BusConfig{}),
	})

	view, resp := postJob(t, ts.URL, JobSpec{Document: "<html></html>"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	// Subscribe mid-job: the submitted and running transitions are already
	// in the replay ring.
	r, closeStream := sseGet(t, ts.URL+"/v1/jobs/"+view.ID+"/events")
	defer closeStream()

	ev, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Name != "snapshot" {
		t.Fatalf("first frame = %q, want snapshot", ev.Name)
	}
	var snap obs.JobProgress
	if err := json.Unmarshal([]byte(ev.Data), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobID != view.ID {
		t.Errorf("snapshot job_id = %q, want %q", snap.JobID, view.ID)
	}

	// Replay: expect job-state events reaching "running" before any live
	// terminal event. Collect states until the terminal one arrives live.
	sawRunning := false
	var states []string
	done := make(chan error, 1)
	go func() {
		for {
			ev, err := r.Next()
			if err != nil {
				done <- err
				return
			}
			if ev.Name != string(obs.KindJob) {
				continue
			}
			var payload obs.Event
			if err := json.Unmarshal([]byte(ev.Data), &payload); err != nil {
				done <- err
				return
			}
			states = append(states, payload.State)
			if payload.State == string(StateRunning) {
				sawRunning = true
				// Only finish the job once the replay is provably consumed.
				close(release)
			}
		}
	}()

	select {
	case err := <-done:
		// The stream must close cleanly (io.EOF) right after the terminal
		// job event — not hang, not error.
		if err != io.EOF {
			t.Fatalf("stream ended with %v, want EOF", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never closed after job completion")
	}
	if !sawRunning {
		t.Fatalf("never saw running state in replay; states = %v", states)
	}
	if last := states[len(states)-1]; last != string(StateSucceeded) {
		t.Fatalf("last streamed state = %q, want %q (all: %v)", last, StateSucceeded, states)
	}

	// A fresh subscription to the now-terminal job replays and closes
	// immediately — no tail, no hang.
	r2, close2 := sseGet(t, ts.URL+"/v1/jobs/"+view.ID+"/events")
	defer close2()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("terminal-job stream did not close")
		}
		if _, err := r2.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobStreamDrainsTerminalEvent pins the close-on-terminal race: the
// job's terminal transition is published after the stream subscribed (so
// it is not in the replay), and by the time the stream asks the queue the
// job is already terminal. The terminal frame is then only on the
// subscription's buffer, and the stream must write it before closing.
func TestJobStreamDrainsTerminalEvent(t *testing.T) {
	bus := obs.NewBus(obs.BusConfig{})
	q := NewQueue(4)
	q.bus = bus
	srv := &Server{queue: q, bus: bus}

	view, err := q.Submit(JobSpec{Document: "<html></html>"})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := bus.Subscribe("test", 0)
	defer sub.Close()
	job, _, _ := q.sessionOf(view.ID)
	q.setRunning(job)
	q.finish(job, StateSucceeded, mustEncode(&ResultJSON{}), nil)

	rec := httptest.NewRecorder()
	srv.tail(context.Background(), rec, rec, sub, eventFilter{jobID: view.ID}, true)

	r := sse.NewReader(rec.Body)
	var states []string
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var payload obs.Event
		if err := json.Unmarshal([]byte(ev.Data), &payload); err != nil {
			t.Fatal(err)
		}
		if payload.JobID != view.ID {
			t.Errorf("frame for another job: %+v", payload)
		}
		states = append(states, payload.State)
	}
	if want := []string{string(StateRunning), string(StateSucceeded)}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("streamed states = %v, want %v", states, want)
	}
}

// TestFirehoseSolverEvents runs a real traced job and checks the firehose
// replay carries its solver telemetry: at least one solver event, gaps
// within [0,1] and non-increasing per scope, and a terminal "done" frame
// per searched component. This is the same probe the CI smoke makes with
// curl.
func TestFirehoseSolverEvents(t *testing.T) {
	bus := obs.NewBus(obs.BusConfig{})
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Tracer:  obs.New(obs.Config{Capacity: 8}),
		Bus:     bus,
	})
	view, _ := postJob(t, ts.URL, JobSpec{Document: runningExampleErrorHTML(), Scenario: "cashbudget"})
	if done := pollJob(t, ts.URL, view.ID); done.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	r, closeStream := sseGet(t, ts.URL+"/v1/events?kind=solver&replay=only")
	defer closeStream()
	solverEvents := 0
	lastGap := map[string]float64{}
	doneScopes := map[string]bool{}
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Name != string(obs.KindSolver) {
			t.Fatalf("kind filter leaked a %q event", ev.Name)
		}
		var payload obs.Event
		if err := json.Unmarshal([]byte(ev.Data), &payload); err != nil {
			t.Fatal(err)
		}
		solverEvents++
		if payload.JobID != view.ID {
			t.Errorf("solver event without job binding: %+v", payload)
		}
		if payload.Gap < 0 || payload.Gap > 1 {
			t.Errorf("gap %v out of [0,1]", payload.Gap)
		}
		if prev, ok := lastGap[payload.Scope]; ok && payload.Gap > prev+1e-12 {
			t.Errorf("scope %s gap increased %v -> %v", payload.Scope, prev, payload.Gap)
		}
		lastGap[payload.Scope] = payload.Gap
		if payload.Name == "done" {
			doneScopes[payload.Scope] = true
		}
	}
	if solverEvents == 0 {
		t.Fatal("firehose replay carried no solver events")
	}
	for scope := range lastGap {
		if !doneScopes[scope] {
			t.Errorf("scope %s never published its done event", scope)
		}
	}

	// The progress aggregate of the finished job: terminal state, all
	// components done, gap settled at 0 (every search proved optimal).
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status = %d", resp.StatusCode)
	}
	var prog obs.JobProgress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	if prog.State != string(StateSucceeded) {
		t.Errorf("progress state = %q", prog.State)
	}
	if prog.ComponentsTotal == 0 || prog.ComponentsDone != prog.ComponentsTotal {
		t.Errorf("components %d/%d, want all done and nonzero",
			prog.ComponentsDone, prog.ComponentsTotal)
	}
	if prog.WorstGap != 0 {
		t.Errorf("worst_gap = %v after all searches closed", prog.WorstGap)
	}
	if prog.Nodes == 0 {
		t.Error("progress aggregate saw no solver nodes")
	}
}

// TestEventEndpointErrors pins the failure modes: 501 without a bus, 404
// for unknown jobs, 400 for bad filters.
func TestEventEndpointErrors(t *testing.T) {
	_, plain := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/events", "/v1/jobs/nope/events", "/v1/jobs/nope/progress"} {
		resp, err := http.Get(plain.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("GET %s without bus = %d, want 501", path, resp.StatusCode)
		}
	}

	_, ts := newTestServer(t, Config{Workers: 1, Bus: obs.NewBus(obs.BusConfig{})})
	cases := map[string]int{
		"/v1/jobs/nope/events":         http.StatusNotFound,
		"/v1/jobs/nope/progress":       http.StatusNotFound,
		"/v1/events?kind=bogus":        http.StatusBadRequest,
		"/v1/events?after_seq=minus-1": http.StatusBadRequest,
	}
	for path, want := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestReadyz pins the readiness lifecycle: 503 before Start, 200 while
// serving, 503 again once draining. Liveness (/healthz) stays 200 until
// the drain begins.
func TestReadyz(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, map[string]any) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		var body map[string]any
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body
	}

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["started"] != false {
		t.Fatalf("pre-start readyz = %d %v, want 503 started=false", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("pre-start healthz = %d, want 200 (liveness, not readiness)", code)
	}

	srv.Start()
	if code, body := get("/readyz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("running readyz = %d %v, want 200 ok", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("draining readyz = %d %v, want 503 draining=true", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", code)
	}
}
