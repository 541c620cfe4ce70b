package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dart/internal/store"
)

// referenceGetBody is GET /v1/jobs/{id} as builds that kept each job's
// decoded result encoded it: writeJSON of the view holding the result.
func referenceGetBody(view JobView, result *ResultJSON) string {
	view.Result = result
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, view)
	return rec.Body.String()
}

// trickyResult carries every value shape the wire encoder treats
// specially: HTML characters, JSON escapes, line separators, control
// bytes, invalid UTF-8, large and fractional numbers.
func trickyResult() *ResultJSON {
	return &ResultJSON{
		Acquisition: &AcquisitionJSON{
			Instances:   1,
			SkippedRows: []SkippedJSON{{Table: 0, Row: 2, BestScore: 0.1, Text: `<td a="1">R&D</td>`}},
			RowErrors:   []string{"quote \" backslash \\ tab \t nl \n", "sep \u2028 \u2029 ctl \x01 bad \xff"},
			StringRepairs: []StringRepairJSON{
				{Table: 1, Row: 3, From: "Ca$h <in>", To: "Cash in", Score: 2.0 / 3},
			},
			Violations: []ViolationJSON{{Ground: "sum(x) <= 250 && y > 1", LHS: -1e-7}},
		},
		Repair: &RepairJSON{Card: 2, Updates: []UpdateJSON{
			{
				Item: ItemJSON{Relation: "CashFlow", Tuple: 3, Attr: "Value"},
				Old:  ValueJSON{Domain: "Z", Value: int64(math.MaxInt64)},
				New:  ValueJSON{Domain: "Z", Value: int64(1) << 60},
			},
			{
				Item: ItemJSON{Relation: "CashFlow", Tuple: 4, Attr: "Name"},
				Old:  ValueJSON{Domain: "R", Value: 1e21},
				New:  ValueJSON{Domain: "S", Value: "é <&> 日本"},
			},
		}},
	}
}

// TestGetMatchesReference: GET /v1/jobs/{id}, which splices the job's
// cached result bytes into the response, serves exactly the bytes the
// reference encoding of the view with the in-memory result produces, for
// terminal jobs with and without a result, error or trace ID, and for
// jobs still queued or running.
func TestGetMatchesReference(t *testing.T) {
	srv, err := New(Config{Store: store.NewMem(), StoreSnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := srv.Queue()
	cases := []struct {
		name    string
		traceID string
		state   JobState
		result  *ResultJSON
		err     error
	}{
		{"succeeded", "00000000deadbeef", StateSucceeded, trickyResult(), nil},
		{"succeeded without trace", "", StateSucceeded, recoveryResult(), nil},
		{"empty result", "0000000000000001", StateSucceeded, &ResultJSON{}, nil},
		{"failed with result", "0000000000000002", StateFailed, trickyResult(), errors.New(`solver <milp> said "no"`)},
		{"failed", "0000000000000003", StateFailed, nil, errors.New("boom")},
		{"running", "0000000000000004", StateRunning, nil, nil},
		{"queued", "", StateQueued, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := q.Submit(JobSpec{Document: tc.name, Scenario: "cashbudget", Solver: "milp"})
			if err != nil {
				t.Fatal(err)
			}
			job := <-q.ch
			if tc.state != StateQueued {
				q.setRunning(job)
				q.setTrace(job, tc.traceID)
			}
			if tc.state.Terminal() {
				q.finish(job, tc.state, mustEncode(tc.result), tc.err)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID, nil))
			view, _ := q.status(v.ID)
			if want := referenceGetBody(view, tc.result); rec.Body.String() != want {
				t.Errorf("GET body differs from the reference encoding:\n got  %s\n want %s", rec.Body, want)
			}
			if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json" {
				t.Errorf("GET = %d %q, want 200 application/json", rec.Code, ct)
			}
		})
	}
}

// TestGetAfterRecoveryMatchesReference runs jobs through a WAL-backed
// server whose snapshots fire every other record, restarts it, and
// requires every job's GET body to be the bytes served before the
// restart, which in turn are the reference encoding.
func TestGetAfterRecoveryMatchesReference(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.WAL {
		w, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := open()
	results := map[string]*ResultJSON{"tricky": trickyResult(), "plain": recoveryResult(), "empty": {}}
	runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
		if res, ok := results[spec.Document]; ok {
			return res, nil
		}
		return nil, errors.New("no <result>")
	}
	srv, err := New(Config{Workers: 1, Runner: runner, Store: w, StoreSnapshotEvery: 2, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	served := map[string]string{}
	for _, doc := range []string{"tricky", "plain", "empty", "missing"} {
		v, err := srv.Queue().Submit(JobSpec{Document: doc})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, srv.Queue(), v.ID, func(v JobView) bool { return v.State.Terminal() })
		served[v.ID] = getBody(t, srv.Queue(), v.ID)
		view, _ := srv.Queue().status(v.ID)
		if want := referenceGetBody(view, results[doc]); served[v.ID] != want {
			t.Errorf("job %s: GET body differs from the reference encoding:\n got  %s\n want %s", doc, served[v.ID], want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := open()
	defer w2.Close()
	srv2, err := New(Config{Store: w2, StoreSnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs := srv2.Recovery(); rs.Completed != 4 || rs.SnapshotJobs == 0 {
		t.Fatalf("recovery = %+v, want 4 completed jobs, some from the snapshot", rs)
	}
	for id, want := range served {
		if got := getBody(t, srv2.Queue(), id); got != want {
			t.Errorf("job %s changed across the restart:\n pre  %s\n post %s", id, want, got)
		}
	}
}

// TestRecoverLegacyEscapedResults: builds that kept decoded results
// persisted them with HTML escaping on, in result frames and in
// snapshots. After recovery such a job is served as those builds served
// it: writeJSON of the view with the decoded result.
func TestRecoverLegacyEscapedResults(t *testing.T) {
	res := &ResultJSON{Acquisition: &AcquisitionJSON{RowErrors: []string{"a <b> & c"}}}
	blob, err := json.Marshal(res) // HTML escaping on
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(JobSpec{Document: "d"})
	state, err := json.Marshal(storeState{NextID: 1, Jobs: []persistedJob{{
		ID: "job-000001", Spec: JobSpec{Document: "d"}, State: StateSucceeded, Attempts: 1,
		SubmittedAt: 1, StartedAt: 2, FinishedAt: 3, Result: blob,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMem()
	if err := mem.WriteSnapshot(0, nil, state); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*store.Record{
		{Type: store.RecSubmit, UnixNano: 4, JobID: "job-000002", State: string(StateQueued), Blob: spec},
		{Type: store.RecTransition, UnixNano: 5, JobID: "job-000002", State: string(StateRunning), Attempts: 1},
		{Type: store.RecResult, UnixNano: 6, JobID: "job-000002", Blob: blob},
		{Type: store.RecTransition, UnixNano: 6, JobID: "job-000002", State: string(StateSucceeded), Attempts: 1},
	} {
		if _, err := mem.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	q, rs, err := RecoverQueue(8, mem, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Completed != 2 {
		t.Fatalf("recovery = %+v, want 2 completed", rs)
	}
	var decoded ResultJSON
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		view, _ := q.status(id)
		if got, want := getBody(t, q, id), referenceGetBody(view, &decoded); got != want {
			t.Errorf("job %s:\n got  %s\n want %s", id, got, want)
		}
	}
}

// TestHTMLEscaped: only a real escape of <, > or & marks legacy bytes;
// an escaped backslash followed by the same letters does not.
func TestHTMLEscaped(t *testing.T) {
	const u = "\\u00" // a JSON escape's backslash, u and first two digits
	for in, want := range map[string]bool{
		`"a<b&c>"`:                      false,
		`"a` + u + `3cb"`:               true,
		`"a>b` + u + `26"`:              true,
		`"a` + u + `3e"`:                true,
		`"a\\` + `u003cb"`:              false,
		`"a\\\\` + u + `26b"`:           true,
		`"ctl ` + u + `01 ` + u + `1f"`: false,
		`"` + u + `3`:                   false,
	} {
		if got := htmlEscaped([]byte(in)); got != want {
			t.Errorf("htmlEscaped(%s) = %v, want %v", in, got, want)
		}
	}
}
