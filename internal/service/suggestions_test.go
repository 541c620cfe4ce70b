package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dart/internal/core"
	"dart/internal/repair"
	"dart/internal/runningex"
	"dart/internal/store"
	"dart/internal/validate"
)

// suggestionsView decodes GET /v1/jobs/{id}/suggestions; the audit-bearing
// parts stay raw so tests can compare them byte for byte across restarts.
type suggestionsView struct {
	JobID       string              `json:"job_id"`
	Live        bool                `json:"live"`
	Open        int                 `json:"open"`
	Count       int                 `json:"count"`
	Counters    json.RawMessage     `json:"counters"`
	Suggestions []repair.Suggestion `json:"suggestions"`
	raw         struct {
		Suggestions json.RawMessage `json:"suggestions"`
	}
}

func getSuggestions(t *testing.T, base, id string) suggestionsView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/suggestions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET suggestions = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	var v suggestionsView
	if err := json.NewDecoder(io2(&buf, resp)).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &v.raw); err != nil {
		t.Fatal(err)
	}
	return v
}

// io2 tees the response body so the raw bytes survive decoding.
func io2(buf *bytes.Buffer, resp *http.Response) *teeReader {
	return &teeReader{r: resp, buf: buf}
}

type teeReader struct {
	r   *http.Response
	buf *bytes.Buffer
}

func (t *teeReader) Read(p []byte) (int, error) {
	n, err := t.r.Body.Read(p)
	t.buf.Write(p[:n])
	return n, err
}

// waitSuggestions polls the suggestions endpoint until pred holds.
func waitSuggestions(t *testing.T, base, id string, pred func(suggestionsView) bool) suggestionsView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if v := getSuggestions(t, base, id); pred(v) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s suggestions never reached the expected state", id)
	return suggestionsView{}
}

// decide posts one decision and returns the HTTP status plus the updated
// suggestion record.
func decide(t *testing.T, base, id string, sid int, body map[string]any) (int, repair.Suggestion) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(base+"/v1/jobs/"+id+"/suggestions/"+strconv.Itoa(sid),
		"application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sg repair.Suggestion
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sg); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sg
}

// TestValidationSessionOverHTTP drives a whole validation session through
// the suggestions API — reject, accept, revert (superseding the rest of the
// queue), re-accept — and then replays the same effective decision sequence
// through the stdin operator path: the two final repaired databases must be
// byte-identical, and the HTTP session's records must carry the full
// who/when audit history.
func TestValidationSessionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v, resp := postJob(t, ts.URL, JobSpec{Document: runningExampleErrorHTML(), Scenario: "cashbudget", Validate: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// Iteration 1: the solver proposes the card-minimal repair 250 -> 220
	// on total cash receipts. Our operator insists the document says 250.
	sv := waitSuggestions(t, ts.URL, v.ID, func(sv suggestionsView) bool { return sv.Live && sv.Open >= 1 })
	first := sv.Suggestions[0]
	if first.Old != 250 || first.New != 220 {
		t.Fatalf("first proposal = %v -> %v, want 250 -> 220", first.Old, first.New)
	}
	if len(first.Evidence) == 0 {
		t.Error("suggestion carries no ground-constraint evidence")
	}
	// A stale seq must conflict, not decide.
	if st, _ := decide(t, ts.URL, v.ID, first.ID, map[string]any{"action": "accept", "seq": first.Seq + 7}); st != http.StatusConflict {
		t.Fatalf("stale-seq decision = %d, want 409", st)
	}
	st, rej := decide(t, ts.URL, v.ID, first.ID, map[string]any{
		"action": "reject", "seq": first.Seq, "by": "alice", "actual_value": 250})
	if st != http.StatusOK || rej.State != repair.StateRejected || rej.DecidedBy != "alice" || rej.DecidedAt == 0 {
		t.Fatalf("reject = %d %+v", st, rej)
	}

	// Iteration 2: with 250 pinned, the solver must repair both violated
	// constraints elsewhere — at least two fresh proposals.
	sv = waitSuggestions(t, ts.URL, v.ID, func(sv suggestionsView) bool { return sv.Live && sv.Open >= 2 })
	var open []repair.Suggestion
	for i := range sv.Suggestions {
		if sv.Suggestions[i].State == repair.StateProposed {
			open = append(open, sv.Suggestions[i])
		}
	}
	// Accept one, then change our mind: the revert must supersede the rest
	// of the open queue (they were computed under the now-withdrawn pin).
	st, acc := decide(t, ts.URL, v.ID, open[0].ID, map[string]any{"action": "accept", "seq": open[0].Seq, "by": "bob"})
	if st != http.StatusOK || acc.State != repair.StateAccepted || acc.DecidedBy != "bob" {
		t.Fatalf("accept = %d %+v", st, acc)
	}
	st, rev := decide(t, ts.URL, v.ID, acc.ID, map[string]any{"action": "revert", "seq": acc.Seq, "by": "bob"})
	if st != http.StatusOK || rev.State != repair.StateReverted || rev.RevertedBy != "bob" || rev.RevertedAt == 0 {
		t.Fatalf("revert = %d %+v", st, rev)
	}

	// Iteration 3 re-proposes fresh records for the same cells; accept
	// everything until the session completes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("session did not complete")
		}
		sv = getSuggestions(t, ts.URL, v.ID)
		if !sv.Live {
			break
		}
		for i := range sv.Suggestions {
			if sg := sv.Suggestions[i]; sg.State == repair.StateProposed {
				decide(t, ts.URL, v.ID, sg.ID, map[string]any{"action": "accept", "seq": sg.Seq, "by": "carol"})
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := pollJob(t, ts.URL, v.ID)
	if got.State != StateSucceeded {
		t.Fatalf("state = %s, error = %q", got.State, got.Error)
	}
	if got.Result.Validation == nil {
		t.Fatal("validate job carries no validation report")
	}
	val := got.Result.Validation
	if val.Rejected != 1 || val.Reverted != 1 || val.Superseded == 0 || val.Accepted < 2 {
		t.Errorf("validation counters = %+v", val)
	}

	// Full audit history on the finished job: every decided record names its
	// decider, the reverted record its reverter, superseded ones their cause.
	fin := getSuggestions(t, ts.URL, v.ID)
	if fin.Live {
		t.Error("finished session still reports live")
	}
	for _, sg := range fin.Suggestions {
		switch sg.State {
		case repair.StateAccepted, repair.StateRejected:
			if sg.DecidedBy == "" || sg.DecidedAt == 0 {
				t.Errorf("decided record missing audit fields: %+v", sg)
			}
		case repair.StateReverted:
			if sg.RevertedBy != "bob" || sg.RevertedAt == 0 {
				t.Errorf("reverted record missing audit fields: %+v", sg)
			}
		case repair.StateSuperseded:
			if sg.SupersededBy == "" || sg.SupersededAt == 0 {
				t.Errorf("superseded record missing audit fields: %+v", sg)
			}
		}
	}

	// The stdin path with the same effective decisions: reject the first
	// proposal with 250, accept everything after. The revert detour cannot
	// change the outcome — the re-solve under the same pins re-proposes the
	// same updates — so the two final databases must be byte-identical.
	in := strings.NewReader("n\n250\n" + strings.Repeat("y\n", 50))
	out, err := (&validate.Session{
		DB:          runningex.AcquiredDatabase(),
		Constraints: runningex.Constraints(),
		Solver:      &core.MILPSolver{},
		Operator:    &validate.InteractiveOperator{In: in, Out: &strings.Builder{}},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	wantDB, _ := json.Marshal(EncodeDatabase(out.Repaired))
	gotDB, _ := json.Marshal(got.Result.Repaired)
	if !bytes.Equal(gotDB, wantDB) {
		t.Errorf("HTTP session's repaired database diverged from the stdin path:\n http  %s\n stdin %s", gotDB, wantDB)
	}

	// The workbench page serves for any known job.
	wb, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/workbench")
	if err != nil {
		t.Fatal(err)
	}
	wb.Body.Close()
	if wb.StatusCode != http.StatusOK || !strings.HasPrefix(wb.Header.Get("Content-Type"), "text/html") {
		t.Errorf("workbench = %d %s", wb.StatusCode, wb.Header.Get("Content-Type"))
	}
}

// scrapeMetrics fetches the /metrics exposition.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestValidationJobCountsSolverWork: a validation session worked through
// the suggestions API feeds the solver counters exactly like an automatic
// job does, and its stage spans feed one prepare observation and one
// resolve observation per iteration.
func TestValidationJobCountsSolverWork(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	before := scrapeMetrics(t, ts.URL)
	v, resp := postJob(t, ts.URL, JobSpec{Document: runningExampleErrorHTML(), Scenario: "cashbudget", Validate: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	// Reject the first proposal so the session re-solves at least once,
	// then accept everything until it completes.
	first := waitSuggestions(t, ts.URL, v.ID, func(sv suggestionsView) bool { return sv.Live && sv.Open >= 1 }).Suggestions[0]
	if st, _ := decide(t, ts.URL, v.ID, first.ID, map[string]any{
		"action": "reject", "seq": first.Seq, "actual_value": first.Old}); st != http.StatusOK {
		t.Fatalf("reject = %d", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for sv := getSuggestions(t, ts.URL, v.ID); sv.Live; sv = getSuggestions(t, ts.URL, v.ID) {
		if time.Now().After(deadline) {
			t.Fatal("session did not complete")
		}
		for _, sg := range sv.Suggestions {
			if sg.State == repair.StateProposed {
				decide(t, ts.URL, v.ID, sg.ID, map[string]any{"action": "accept", "seq": sg.Seq})
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := pollJob(t, ts.URL, v.ID)
	if got.State != StateSucceeded {
		t.Fatalf("state = %s, error = %q", got.State, got.Error)
	}
	after := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"dartd_components_solved_total", "dart_bb_nodes_total"} {
		if b, a := metricValue(t, before, name), metricValue(t, after, name); a <= b {
			t.Errorf("%s = %v after the validation job, %v before; want it to rise", name, a, b)
		}
	}
	if n := metricValue(t, after, "dart_prepare_seconds_count"); n != 1 {
		t.Errorf("dart_prepare_seconds_count = %v, want 1", n)
	}
	if n, want := metricValue(t, after, "dart_resolve_seconds_count"), got.Result.Validation.Iterations; n != float64(want) || want < 2 {
		t.Errorf("dart_resolve_seconds_count = %v over %d iterations, want one per iteration and at least 2", n, want)
	}
}

// TestSuggestionEndpointErrors pins the failure surface: unknown jobs 404,
// decisions without a live session 409, malformed bodies 400.
func TestSuggestionEndpointErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope/suggestions"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job suggestions = %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// A non-validate job exists but never has a live session: decisions 409,
	// the (empty) suggestion list and workbench still serve.
	v, err := srv.Queue().Submit(JobSpec{Document: runningExampleErrorHTML(), Scenario: "cashbudget"})
	if err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, v.ID)
	if st, _ := decide(t, ts.URL, v.ID, 1, map[string]any{"action": "accept", "seq": 1}); st != http.StatusConflict {
		t.Fatalf("decision without live session = %d, want 409", st)
	}
	if sv := getSuggestions(t, ts.URL, v.ID); sv.Live || sv.Count != 0 {
		t.Fatalf("non-validate job suggestions = %+v", sv)
	}
}

// TestValidationSessionCrashReplay is the kill -9 story for live sessions:
// decisions journal to the WAL as they land, so after an abrupt crash the
// restarted server rebuilds the identical suggestion queue and decision
// history — byte for byte — and the session finishes from where it stopped,
// never re-asking a decided suggestion.
func TestValidationSessionCrashReplay(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestServerNoCleanup(t, Config{Workers: 1, Store: st1})
	srv1.Start()

	v, resp := postJob(t, ts1.URL, JobSpec{Document: runningExampleErrorHTML(), Scenario: "cashbudget", Validate: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sv := waitSuggestions(t, ts1.URL, v.ID, func(sv suggestionsView) bool { return sv.Live && sv.Open >= 1 })
	first := sv.Suggestions[0]
	if st, _ := decide(t, ts1.URL, v.ID, first.ID, map[string]any{
		"action": "reject", "seq": first.Seq, "by": "alice", "actual_value": 250}); st != http.StatusOK {
		t.Fatalf("reject = %d", st)
	}
	// Iteration 2 under the pin: decide one of the fresh proposals, leave
	// the rest open — the crash lands mid-queue.
	sv = waitSuggestions(t, ts1.URL, v.ID, func(sv suggestionsView) bool { return sv.Live && sv.Open >= 2 })
	var open []repair.Suggestion
	for i := range sv.Suggestions {
		if sv.Suggestions[i].State == repair.StateProposed {
			open = append(open, sv.Suggestions[i])
		}
	}
	if st, _ := decide(t, ts1.URL, v.ID, open[0].ID, map[string]any{"action": "accept", "seq": open[0].Seq, "by": "bob"}); st != http.StatusOK {
		t.Fatalf("accept = %d", st)
	}
	pre := getSuggestions(t, ts1.URL, v.ID)
	if pre.Open == 0 {
		t.Fatal("queue drained before the crash; the test needs an undecided remainder")
	}

	// Crash: nothing after this reaches the store; the parked session is
	// force-cancelled by an expired drain deadline, exactly what kill -9
	// leaves behind.
	ts1.Close()
	srv1.Queue().detachStore()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = srv1.Shutdown(ctx)
	cancel()
	st1.Close()

	// Restart: before any worker runs, the suggestion queue and decision
	// history replay byte-identically from the WAL.
	st2, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServerNoCleanup(t, Config{Workers: 1, Store: st2})
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
		st2.Close()
	}()
	if rs := srv2.Recovery(); rs == nil || rs.Requeued != 1 {
		t.Fatalf("recovery = %+v, want the session job requeued", rs)
	}
	post := getSuggestions(t, ts2.URL, v.ID)
	if !bytes.Equal(pre.raw.Suggestions, post.raw.Suggestions) {
		t.Errorf("suggestion history changed across the crash:\n pre  %s\n post %s", pre.raw.Suggestions, post.raw.Suggestions)
	}
	if !bytes.Equal(pre.Counters, post.Counters) {
		t.Errorf("counters changed across the crash:\n pre  %s\n post %s", pre.Counters, post.Counters)
	}

	// Resume: the restored session re-parks on the same open queue (the
	// idempotent re-propose mints no new records) and finishes from there.
	srv2.Start()
	sv = waitSuggestions(t, ts2.URL, v.ID, func(sv suggestionsView) bool { return sv.Live })
	if !bytes.Equal(pre.raw.Suggestions, sv.raw.Suggestions) {
		t.Errorf("resumed queue diverged from the pre-crash queue:\n pre    %s\n resume %s", pre.raw.Suggestions, sv.raw.Suggestions)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("resumed session did not complete")
		}
		sv = getSuggestions(t, ts2.URL, v.ID)
		if !sv.Live {
			break
		}
		for i := range sv.Suggestions {
			if sg := sv.Suggestions[i]; sg.State == repair.StateProposed {
				decide(t, ts2.URL, v.ID, sg.ID, map[string]any{"action": "accept", "seq": sg.Seq, "by": "carol"})
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := pollJob(t, ts2.URL, v.ID)
	if got.State != StateSucceeded {
		t.Fatalf("resumed session finished %s: %s", got.State, got.Error)
	}
	val := got.Result.Validation
	if val == nil || val.Rejected != 1 || val.Accepted < 2 {
		t.Fatalf("resumed session lost decisions: %+v", val)
	}
	// The pre-crash decisions kept their audit identity through the replay.
	fin := getSuggestions(t, ts2.URL, v.ID)
	var alice bool
	for _, sg := range fin.Suggestions {
		if sg.State == repair.StateRejected && sg.DecidedBy == "alice" {
			alice = true
		}
	}
	if !alice {
		t.Error("pre-crash rejection lost its audit identity across the replay")
	}
}

// newTestServerNoCleanup builds a server plus front end whose lifecycle the
// test manages itself (crash-simulation tests shut down mid-flight and must
// inspect recovered state before any worker starts); callers Start() it.
func newTestServerNoCleanup(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler())
}
