package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dart/internal/store"
)

// recoveryResult is the deterministic payload the crash-recovery runners
// produce; its JSON must round-trip byte-identically through the store.
func recoveryResult() *ResultJSON {
	return &ResultJSON{
		Repair: &RepairJSON{Card: 1, Updates: []UpdateJSON{{
			Item: ItemJSON{Relation: "CashFlow", Tuple: 3, Attr: "Value"},
			Old:  ValueJSON{Domain: "Z", Value: 250},
			New:  ValueJSON{Domain: "Z", Value: 220},
		}}},
	}
}

// waitJob polls one job until pred holds.
func waitJob(t *testing.T, q *Queue, id string, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := q.Get(id); ok && pred(v) {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the expected state", id)
	return JobView{}
}

// TestCrashRecovery is the kill -9 simulation, table-driven over both
// store backends: a completed job, a running job, and a queued job go
// through an abrupt store detach (no appends from then on, exactly the
// history a dead process leaves). After "restart" the completed job's
// JobView must replay byte-identical without re-solving, and the other
// two must re-run to completion.
func TestCrashRecovery(t *testing.T) {
	mem := store.NewMem()
	backends := []struct {
		name string
		open func(t *testing.T, dir string) store.JobStore
	}{
		{"wal", func(t *testing.T, dir string) store.JobStore {
			w, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
		// The in-memory backend survives "restarts" as the same object; the
		// detach still freezes its history at the crash point.
		{"mem", func(t *testing.T, dir string) store.JobStore { return mem }},
	}

	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			dir := t.TempDir()

			// --- incarnation 1: run one job to completion, crash mid-flight ---
			st1 := bk.open(t, dir)
			gate := make(chan struct{})
			runner1 := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
				if spec.Document == "block" {
					select {
					case <-gate:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return recoveryResult(), nil
			}
			// SnapshotEvery 4 puts the completed job into a snapshot and the
			// in-flight ones into the log, covering both replay sources.
			srv1, err := New(Config{Workers: 1, Runner: runner1, Store: st1, StoreSnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			srv1.Start()

			a, err := srv1.Queue().Submit(JobSpec{Document: "fast-a", Scenario: "cashbudget"})
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, srv1.Queue(), a.ID, func(v JobView) bool { return v.State.Terminal() })
			preView, _ := srv1.Queue().Get(a.ID)
			preJSON, err := json.Marshal(preView)
			if err != nil {
				t.Fatal(err)
			}
			if preView.State != StateSucceeded || preView.Result == nil {
				t.Fatalf("job a = %s (result %v), want succeeded with result", preView.State, preView.Result)
			}

			b, err := srv1.Queue().Submit(JobSpec{Document: "block"})
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, srv1.Queue(), b.ID, func(v JobView) bool { return v.State == StateRunning })
			c, err := srv1.Queue().Submit(JobSpec{Document: "fast-c"})
			if err != nil {
				t.Fatal(err)
			}

			// Crash: the store stops hearing from the process mid-job. The
			// blocked runner is then released so the goroutines wind down,
			// but nothing after the detach reaches the store.
			srv1.Queue().detachStore()
			close(gate)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			if w, ok := st1.(*store.WAL); ok {
				w.Close()
			}

			// --- incarnation 2: replay, re-run the interrupted jobs ---
			st2 := bk.open(t, dir)
			var mu sync.Mutex
			runs := map[string]int{}
			runner2 := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
				mu.Lock()
				runs[spec.Document]++
				mu.Unlock()
				return recoveryResult(), nil
			}
			srv2, err := New(Config{Workers: 1, Runner: runner2, Store: st2, StoreSnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			rs := srv2.Recovery()
			if rs == nil {
				t.Fatal("no recovery stats with a configured store")
			}
			if rs.Completed != 1 || rs.Requeued != 2 || rs.Dropped != 0 || rs.Orphans != 0 {
				t.Fatalf("recovery = %+v, want 1 completed, 2 requeued, 0 dropped/orphans", rs)
			}

			// The completed job replays byte-identically, before any worker runs.
			postView, ok := srv2.Queue().Get(a.ID)
			if !ok {
				t.Fatalf("job %s lost across restart", a.ID)
			}
			postJSON, err := json.Marshal(postView)
			if err != nil {
				t.Fatal(err)
			}
			if string(preJSON) != string(postJSON) {
				t.Errorf("job %s changed across restart:\n pre  %s\n post %s", a.ID, preJSON, postJSON)
			}

			srv2.Start()
			bv := waitJob(t, srv2.Queue(), b.ID, func(v JobView) bool { return v.State.Terminal() })
			cv := waitJob(t, srv2.Queue(), c.ID, func(v JobView) bool { return v.State.Terminal() })
			if bv.State != StateSucceeded || cv.State != StateSucceeded {
				t.Fatalf("recovered jobs finished %s/%s, want succeeded", bv.State, cv.State)
			}
			mu.Lock()
			if runs["fast-a"] != 0 {
				t.Errorf("completed job re-solved %d times after restart", runs["fast-a"])
			}
			if runs["block"] != 1 || runs["fast-c"] != 1 {
				t.Errorf("recovered jobs ran %d/%d times, want 1/1", runs["block"], runs["fast-c"])
			}
			mu.Unlock()
			ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv2.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			if w, ok := st2.(*store.WAL); ok {
				w.Close()
			}

			// --- incarnation 3: everything is terminal, nothing re-runs ---
			st3 := bk.open(t, dir)
			runner3 := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
				t.Errorf("runner invoked for %q after full recovery", spec.Document)
				return recoveryResult(), nil
			}
			srv3, err := New(Config{Workers: 1, Runner: runner3, Store: st3, StoreSnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			if rs := srv3.Recovery(); rs.Completed != 3 || rs.Requeued != 0 {
				t.Fatalf("third boot recovery = %+v, want 3 completed, 0 requeued", rs)
			}
			for _, id := range []string{a.ID, b.ID, c.ID} {
				v, ok := srv3.Queue().Get(id)
				if !ok || v.Result == nil {
					t.Errorf("job %s missing its result after final restart (found %v)", id, ok)
				}
			}
			srv3.Start()
			ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv3.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			if w, ok := st3.(*store.WAL); ok {
				w.Close()
			}
		})
	}
}

// TestRecoveredIDsDoNotCollide: submissions after a restart must continue
// the ID sequence, not reuse IDs of replayed jobs.
func TestRecoveredIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(8)
	q.store = st
	v1, err := q.Submit(JobSpec{Document: "one"})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	q2, _, err := RecoverQueue(8, st2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := q2.Submit(JobSpec{Document: "two"})
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID == v1.ID {
		t.Fatalf("post-restart submission reused ID %s", v1.ID)
	}
	if v2.ID != "job-000002" {
		t.Fatalf("post-restart submission got %s, want job-000002", v2.ID)
	}
}

// TestSnapshotOnSubmitKeepsJob: when a job's submit frame is the append
// that triggers a snapshot, the snapshot must contain the job. A snapshot
// taken before the job is registered omits it and truncates the log that
// held its submit frame, losing an accepted job.
func TestSnapshotOnSubmitKeepsJob(t *testing.T) {
	for _, bk := range []struct {
		name string
		// open returns the store and a reopen func simulating a restart.
		open func(t *testing.T) (store.JobStore, func() store.JobStore)
	}{
		{"mem", func(t *testing.T) (store.JobStore, func() store.JobStore) {
			m := store.NewMem()
			return m, func() store.JobStore { return m }
		}},
		{"wal", func(t *testing.T) (store.JobStore, func() store.JobStore) {
			dir := t.TempDir()
			open := func() *store.WAL {
				w, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			w := open()
			return w, func() store.JobStore {
				w.Close()
				w2 := open()
				t.Cleanup(func() { w2.Close() })
				return w2
			}
		}},
	} {
		t.Run(bk.name, func(t *testing.T) {
			st, reopen := bk.open(t)
			srv, err := New(Config{Store: st, StoreSnapshotEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			v, err := srv.Queue().Submit(JobSpec{Document: "x"})
			if err != nil {
				t.Fatal(err)
			}
			q, rs, err := RecoverQueue(0, reopen(), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Requeued != 1 {
				t.Fatalf("recovery = %+v, want the submitted job requeued", rs)
			}
			if got, ok := q.Get(v.ID); !ok || got.State != StateQueued {
				t.Fatalf("job %s after recovery: found=%v state=%s, want queued", v.ID, ok, got.State)
			}
		})
	}
}

// fakeStore counts interface calls; the drain test uses it to pin the
// shutdown-flush contract without touching disk.
type fakeStore struct {
	mu      sync.Mutex
	seq     uint64
	appends int
	syncs   int
}

func (f *fakeStore) Append(rec *store.Record) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.appends++
	return f.seq, nil
}

func (f *fakeStore) Replay(sealed func([]byte) error, fn func(*store.Record) error) ([]byte, error) {
	return nil, nil
}
func (f *fakeStore) WriteSnapshot(through uint64, sealed [][]byte, state []byte) error { return nil }

func (f *fakeStore) AppendsSinceSnapshot() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appends
}

func (f *fakeStore) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	return nil
}

func (f *fakeStore) counts() (appends, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appends, f.syncs
}

func (f *fakeStore) Stats() store.Stats { return store.Stats{} }
func (f *fakeStore) Close() error       { return nil }

// TestDrainSyncsStore: a graceful drain must flush the store after the
// workers exit, on both the clean path and the deadline-expired path.
func TestDrainSyncsStore(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		fs := &fakeStore{}
		runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
			return recoveryResult(), nil
		}
		srv, err := New(Config{Workers: 1, Runner: runner, Store: fs, StoreSnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		v, err := srv.Queue().Submit(JobSpec{Document: "d"})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, srv.Queue(), v.ID, func(v JobView) bool { return v.State.Terminal() })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		appends, syncs := fs.counts()
		if appends == 0 {
			t.Error("no records reached the store")
		}
		if syncs == 0 {
			t.Error("graceful drain did not sync the store")
		}
	})

	t.Run("forced", func(t *testing.T) {
		fs := &fakeStore{}
		runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
			<-ctx.Done() // holds the worker until the forced drain cancels it
			return nil, ctx.Err()
		}
		srv, err := New(Config{Workers: 1, Runner: runner, Store: fs, StoreSnapshotEvery: -1, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		if _, err := srv.Queue().Submit(JobSpec{Document: "d"}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("forced drain returned %v, want deadline exceeded", err)
		}
		if _, syncs := fs.counts(); syncs == 0 {
			t.Error("forced drain did not sync the store")
		}
	})
}

// TestListPagination covers the GET /v1/jobs query surface: page walking
// via cursors, the state filter, and the rejection paths.
func TestListPagination(t *testing.T) {
	runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
		if spec.Document == "fail" {
			return nil, errors.New("boom")
		}
		return recoveryResult(), nil
	}
	srv, ts := newTestServer(t, Config{Workers: 2, Runner: runner, MaxAttempts: 1})

	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		if i == 3 {
			doc = "fail"
		}
		v, err := srv.Queue().Submit(JobSpec{Document: doc})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitJob(t, srv.Queue(), id, func(v JobView) bool { return v.State.Terminal() })
	}

	type listResp struct {
		Jobs       []JobView `json:"jobs"`
		Count      int       `json:"count"`
		NextCursor string    `json:"next_cursor"`
	}
	list := func(t *testing.T, query string, wantStatus int) listResp {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET /v1/jobs%s = %d, want %d", query, resp.StatusCode, wantStatus)
		}
		var lr listResp
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}
	jobIDs := func(lr listResp) []string {
		out := make([]string, 0, len(lr.Jobs))
		for _, j := range lr.Jobs {
			out = append(out, j.ID)
		}
		return out
	}

	// No parameters: the whole backlog, unchanged backward-compat shape.
	all := list(t, "", http.StatusOK)
	if all.Count != 5 || len(all.Jobs) != 5 || all.NextCursor != "" {
		t.Fatalf("unpaginated list = count %d, %d jobs, cursor %q", all.Count, len(all.Jobs), all.NextCursor)
	}

	// Cursor walk in pages of two: 2 + 2 + 1, submission order preserved.
	var walked []string
	query := "?limit=2"
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("cursor walk did not terminate")
		}
		lr := list(t, query, http.StatusOK)
		walked = append(walked, jobIDs(lr)...)
		if lr.NextCursor == "" {
			break
		}
		if lr.NextCursor != lr.Jobs[len(lr.Jobs)-1].ID {
			t.Fatalf("next_cursor %q is not the page's last job %q", lr.NextCursor, lr.Jobs[len(lr.Jobs)-1].ID)
		}
		query = "?limit=2&cursor=" + lr.NextCursor
	}
	if fmt.Sprint(walked) != fmt.Sprint(ids) {
		t.Fatalf("cursor walk visited %v, want %v", walked, ids)
	}

	// State filter: exactly the one failed job.
	failed := list(t, "?state=failed", http.StatusOK)
	if len(failed.Jobs) != 1 || failed.Jobs[0].ID != ids[3] {
		t.Fatalf("state=failed returned %v, want [%s]", jobIDs(failed), ids[3])
	}
	succeeded := list(t, "?state=succeeded&limit=3", http.StatusOK)
	if len(succeeded.Jobs) != 3 || succeeded.NextCursor == "" {
		t.Fatalf("state=succeeded&limit=3 returned %d jobs, cursor %q", len(succeeded.Jobs), succeeded.NextCursor)
	}
	rest := list(t, "?state=succeeded&cursor="+succeeded.NextCursor, http.StatusOK)
	if len(rest.Jobs) != 1 || rest.NextCursor != "" {
		t.Fatalf("succeeded tail = %d jobs, cursor %q, want 1 job and no cursor", len(rest.Jobs), rest.NextCursor)
	}

	// Rejection paths.
	list(t, "?state=bogus", http.StatusBadRequest)
	list(t, "?limit=x", http.StatusBadRequest)
	list(t, "?limit=-1", http.StatusBadRequest)
	list(t, "?cursor=job-999999", http.StatusBadRequest)
}

// TestSucceededJobAppendsFourRecords pins what one job costs the store:
// a job that succeeds on its first attempt appends exactly its submit,
// running transition, result, and succeeded transition, in that order.
func TestSucceededJobAppendsFourRecords(t *testing.T) {
	mem := store.NewMem()
	runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) { return recoveryResult(), nil }
	srv, err := New(Config{Workers: 1, Runner: runner, Store: mem, StoreSnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	v, err := srv.Queue().Submit(JobSpec{Document: "d"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, srv.Queue(), v.ID, func(v JobView) bool { return v.State.Terminal() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	var got []string
	if _, err := mem.Replay(noSealed, func(rec *store.Record) error {
		got = append(got, rec.Type.String()+":"+rec.State)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"submit:queued", "transition:running", "result:", "transition:succeeded"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("one succeeded job appended %v, want %v", got, want)
	}
}

// TestRecoverSkipsLegacySpansFrame: older builds appended a spans frame
// (record type 4) after each job's running transition. A log holding one
// must still recover the job, terminal with its result, and count no
// orphan records.
func TestRecoverSkipsLegacySpansFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(JobSpec{Document: "d"})
	result, _ := json.Marshal(recoveryResult())
	for _, rec := range []*store.Record{
		{Type: store.RecSubmit, UnixNano: 1, JobID: "job-000001", State: string(StateQueued), Blob: spec},
		{Type: store.RecTransition, UnixNano: 2, JobID: "job-000001", State: string(StateRunning), Attempts: 1, TraceID: "00000000deadbeef"},
		{Type: store.RecordType(4), UnixNano: 3, JobID: "job-000001", TraceID: "00000000deadbeef", Blob: []byte(`{"spans":9}`)},
		{Type: store.RecResult, UnixNano: 4, JobID: "job-000001", Blob: result},
		{Type: store.RecTransition, UnixNano: 4, JobID: "job-000001", State: string(StateSucceeded), Attempts: 1},
	} {
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	q, stats, err := RecoverQueue(8, st2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 5 || stats.Orphans != 0 || stats.Completed != 1 || stats.Requeued != 0 {
		t.Errorf("recovery stats = %+v, want 5 records, 0 orphans, 1 completed, 0 requeued", stats)
	}
	v, ok := q.Get("job-000001")
	if !ok || v.State != StateSucceeded || v.Result == nil || v.TraceID != "00000000deadbeef" {
		t.Fatalf("recovered job = %+v (found %v), want succeeded with its result and trace ID", v, ok)
	}
}

// noSealed is a Replay callback for tests that ignore sealed entries.
func noSealed([]byte) error { return nil }
