package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dart/internal/store"
)

// gatedStore wraps a JobStore and holds every WriteSnapshot until the
// test closes release. Each snapshot announces its through sequence on
// entered as it starts. Sync records whether a snapshot was in flight.
type gatedStore struct {
	store.JobStore
	entered chan uint64
	release chan struct{}

	mu               sync.Mutex
	inFlight         bool
	syncedInSnapshot bool
}

func newGatedStore(inner store.JobStore) *gatedStore {
	return &gatedStore{JobStore: inner, entered: make(chan uint64, 16), release: make(chan struct{})}
}

func (g *gatedStore) WriteSnapshot(through uint64, sealed [][]byte, state []byte) error {
	g.mu.Lock()
	g.inFlight = true
	g.mu.Unlock()
	g.entered <- through
	<-g.release
	err := g.JobStore.WriteSnapshot(through, sealed, state)
	g.mu.Lock()
	g.inFlight = false
	g.mu.Unlock()
	return err
}

func (g *gatedStore) Sync() error {
	g.mu.Lock()
	g.syncedInSnapshot = g.syncedInSnapshot || g.inFlight
	g.mu.Unlock()
	return g.JobStore.Sync()
}

// storeBackends opens each store backend for a test; reopen simulates a
// restart on the same durable state.
var storeBackends = []struct {
	name string
	open func(t *testing.T) (st store.JobStore, reopen func() store.JobStore)
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
			t.Cleanup(func() { w.Close() })
			return w
		}
		w := open()
		return w, func() store.JobStore {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w = open()
			return w
		}
	}},
}

// getBody is the GET /v1/jobs/{id} response body for a job of q.
func getBody(t *testing.T, q *Queue, id string) string {
	t.Helper()
	view, result, ok := q.getEncoded(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	rec := httptest.NewRecorder()
	writeJob(rec, view, result)
	return rec.Body.String()
}

// mustEncode encodes a result as finish receives it (nil stays nil).
func mustEncode(res *ResultJSON) []byte {
	out, err := encodeRun(res, nil)
	if err != nil {
		panic(err)
	}
	return out.encoded
}

// numberedResult is a distinct result per job.
func numberedResult(n int) *ResultJSON {
	res := recoveryResult()
	res.Repair.Updates[0].New.Value = int64(n)
	return res
}

// TestSnapshotInterleaving holds a snapshot inside WriteSnapshot while
// jobs are submitted, started and finished, then releases it and crashes
// the queue. The test plays the worker itself, so every step happens in
// a fixed order without sleeps. Recovery must bring back every job, may
// requeue none of the terminal ones, and must serve each terminal job's
// GET body byte for byte as before the crash. A cut that dropped records
// appended after the snapshot's capture would lose jobs c and d and job
// b's result.
func TestSnapshotInterleaving(t *testing.T) {
	for _, bk := range storeBackends {
		t.Run(bk.name, func(t *testing.T) {
			inner, reopen := bk.open(t)
			gs := newGatedStore(inner)
			q, _, err := RecoverQueue(16, gs, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			submit := func(doc string) string {
				v, err := q.Submit(JobSpec{Document: doc})
				if err != nil {
					t.Fatal(err)
				}
				return v.ID
			}
			next := func() *Job {
				select {
				case job := <-q.ch:
					return job
				default:
					t.Fatal("no queued job")
					return nil
				}
			}

			a, b := submit("a"), submit("b") // seq 1, 2
			ja := next()
			q.setRunning(ja)                                                 // 3
			q.finish(ja, StateSucceeded, mustEncode(numberedResult(1)), nil) // 4 triggers the snapshot, 5
			if through := <-gs.entered; through != 4 {
				t.Fatalf("snapshot captured through seq %d, want 4", through)
			}

			// The snapshot is held; the queue goes on.
			c, d := submit("c"), submit("d") // 6, 7
			jb := next()
			q.setRunning(jb)                                                 // 8
			q.finish(jb, StateSucceeded, mustEncode(numberedResult(2)), nil) // 9, 10
			q.setRunning(next())                                             // 11: c is running at the crash, d queued
			served := map[string]string{a: getBody(t, q, a), b: getBody(t, q, b)}

			close(gs.release)
			q.waitSnapshot()
			if st := inner.Stats(); st.Snapshots != 1 {
				t.Fatalf("store wrote %d snapshots, want 1", st.Snapshots)
			}
			q.detachStore()

			// Two restarts: the first replays the held snapshot plus the
			// records after it and writes a snapshot of its own; the second
			// replays that one.
			for boot := 1; boot <= 2; boot++ {
				st := reopen()
				q2, rs, err := RecoverQueue(16, st, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rs.Completed != 2 || rs.Requeued != 2 || rs.Dropped != 0 || rs.Orphans != 0 {
					t.Fatalf("boot %d: recovery = %+v, want 2 completed, 2 requeued", boot, rs)
				}
				if boot == 1 && (rs.SnapshotJobs != 2 || rs.Records != 7) {
					t.Fatalf("boot 1: recovery = %+v, want the 2 captured jobs and records 5..11", rs)
				}
				for id, want := range served {
					if got := getBody(t, q2, id); got != want {
						t.Errorf("boot %d: job %s changed across the crash:\n pre  %s\n post %s", boot, id, want, got)
					}
				}
				for _, id := range []string{c, d} {
					if v, ok := q2.Get(id); !ok || v.State != StateQueued {
						t.Errorf("boot %d: job %s found=%v state=%s, want queued", boot, id, ok, v.State)
					}
				}
				q2.waitSnapshot()
				q2.detachStore()
			}
		})
	}
}

// TestShutdownWaitsForSnapshot: a drain waits for an in-flight snapshot
// before it flushes the store, so the store closes cleanly right after
// Shutdown returns.
func TestShutdownWaitsForSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	gs := newGatedStore(w)
	runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) { return recoveryResult(), nil }
	srv, err := New(Config{Workers: 1, Runner: runner, Store: gs, StoreSnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	if _, err := srv.Queue().Submit(JobSpec{Document: "d"}); err != nil {
		t.Fatal(err)
	}
	<-gs.entered // the job's fourth record started a snapshot, now held

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a snapshot was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gs.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("closing the store right after Shutdown: %v", err)
	}
	gs.mu.Lock()
	synced := gs.syncedInSnapshot
	gs.mu.Unlock()
	if synced {
		t.Error("the drain synced the store while the snapshot was in flight")
	}
	if st := w.Stats(); st.Snapshots != 1 {
		t.Errorf("store wrote %d snapshots, want 1", st.Snapshots)
	}
}

// TestRecoveryBelowThresholdStartsNoSnapshot: servers booted on a store
// whose log stays under the snapshot threshold start no snapshot, so they
// can be dropped without Shutdown and their store closed at once, as a
// timed recovery does three times over.
func TestRecoveryBelowThresholdStartsNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, spec JobSpec) (*ResultJSON, error) { return recoveryResult(), nil }
	srv, err := New(Config{Workers: 1, Runner: runner, Store: w, StoreSnapshotEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	for i := 0; i < 3; i++ {
		v, err := srv.Queue().Submit(JobSpec{Document: fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, srv.Queue(), v.ID, func(v JobView) bool { return v.State.Terminal() })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for boot := 0; boot < 3; boot++ {
		w2, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
		if err != nil {
			t.Fatal(err)
		}
		gs := newGatedStore(w2) // a snapshot would hold here, and Close would wait for it
		srv2, err := New(Config{Store: gs, StoreSnapshotEvery: 256})
		if err != nil {
			t.Fatal(err)
		}
		if rs := srv2.Recovery(); rs.Completed != 3 || rs.Requeued != 0 {
			t.Fatalf("boot %d: recovery = %+v, want 3 completed, 0 requeued", boot, rs)
		}
		q := srv2.Queue()
		q.mu.Lock()
		started := q.snapDone != nil
		q.mu.Unlock()
		if started || len(gs.entered) != 0 {
			t.Fatalf("boot %d: recovery below the threshold started a snapshot", boot)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotBounded: a snapshot holds the live jobs, not the history.
// After ten times snapshotEvery finished jobs, with one more job running,
// the landed snapshot's state holds at most the two jobs that were not
// sealed at its capture, every other job is sealed once, and at most two
// log files exist.
func TestSnapshotBounded(t *testing.T) {
	const every, jobs = 8, 10 * 8
	dir := t.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := RecoverQueue(16, w, every, func(err error) { t.Error(err) })
	if err != nil {
		t.Fatal(err)
	}
	run := func(i int, finish bool) {
		if _, err := q.Submit(JobSpec{Document: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		job := <-q.ch
		q.waitSnapshot()
		q.setRunning(job)
		q.waitSnapshot()
		if finish {
			q.finish(job, StateSucceeded, mustEncode(numberedResult(i)), nil)
			q.waitSnapshot()
		}
	}
	for i := 0; i < jobs; i++ {
		run(i, true)
	}
	run(jobs, false)
	q.detachStore()
	if n := w.Stats().Snapshots; n < jobs*4/every-1 {
		t.Fatalf("store wrote %d snapshots, want about %d", n, jobs*4/every)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, name := range dirEntries(t, dir) {
		if strings.HasSuffix(name, ".wal") {
			logs = append(logs, name)
		}
	}
	if len(logs) > 2 {
		t.Errorf("directory holds log files %v, want at most two", logs)
	}

	w2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	sealed := map[string]bool{}
	blob, err := w2.Replay(func(e []byte) error {
		var pj persistedJob
		if err := json.Unmarshal(e, &pj); err != nil {
			return err
		}
		if sealed[pj.ID] {
			t.Errorf("job %s sealed twice", pj.ID)
		}
		sealed[pj.ID] = true
		return nil
	}, func(*store.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var state storeState
	if err := json.Unmarshal(blob, &state); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d snapshots, logs %v, %d sealed, %d live", w.Stats().Snapshots, logs, len(sealed), len(state.Jobs))
	if len(state.Jobs) > 2 || len(sealed) < jobs-2 {
		t.Errorf("snapshot holds %d jobs with %d sealed, want at most 2 and at least %d", len(state.Jobs), len(sealed), jobs-2)
	}
	for _, pj := range state.Jobs {
		if sealed[pj.ID] {
			t.Errorf("snapshot holds sealed job %s", pj.ID)
		}
	}
}
