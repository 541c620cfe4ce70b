package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dart/internal/store"
)

// legacyStore is a store directory in the format before sealed entries:
// one jobs.wal and a version 1 snapshot.bin whose blob holds every job it
// covers. Ten jobs ran through a server on it with StoreSnapshotEvery 8:
// job-000003's result holds <, > and &, job-000005 failed, and the last
// jobs' records are still in the log. Beside the store lie the bodies
// that build served: list.json for GET /v1/jobs and job-NNNNNN.json for
// GET /v1/jobs/{id}.
const legacyStore = "testdata/legacystore"

// TestRecoverLegacyStore: a server recovers a legacy directory with every
// job completed and serves the same GET /v1/jobs/{id} bodies and the same
// GET /v1/jobs body, byte for byte. Its first snapshot seals every legacy
// job, a later one deletes jobs.wal, and a second recovery from the new
// layout still serves the same bodies, with the legacy jobs first.
func TestRecoverLegacyStore(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"jobs.wal", "snapshot.bin"} {
		data, err := os.ReadFile(filepath.Join(legacyStore, "store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]byte{}
	var ids []string
	for i := 1; i <= 10; i++ {
		id := fmt.Sprintf("job-%06d", i)
		body, err := os.ReadFile(filepath.Join(legacyStore, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = body
		ids = append(ids, id)
	}
	wantList, err := os.ReadFile(filepath.Join(legacyStore, "list.json"))
	if err != nil {
		t.Fatal(err)
	}

	open := func() (*store.WAL, *Server) {
		t.Helper()
		w, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: w, StoreSnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		if rs := srv.Recovery(); rs.Completed < len(ids) || rs.Requeued != 0 || rs.Orphans != 0 {
			t.Fatalf("recovery = %+v, want %d completed and none requeued", rs, len(ids))
		}
		return w, srv
	}
	get := func(srv *Server, path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	checkBodies := func(srv *Server) {
		t.Helper()
		for _, id := range ids {
			if got := get(srv, "/v1/jobs/"+id); !bytes.Equal(got, want[id]) {
				t.Errorf("GET %s:\n got  %s\n want %s", id, got, want[id])
			}
		}
	}

	w, srv := open()
	checkBodies(srv)
	if got := get(srv, "/v1/jobs"); !bytes.Equal(got, wantList) {
		t.Errorf("GET /v1/jobs:\n got  %s\n want %s", got, wantList)
	}

	// Play the worker, so that each snapshot lands before the next step.
	q := srv.Queue()
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(JobSpec{Document: strings.Repeat("n", i+1)}); err != nil {
			t.Fatal(err)
		}
		job := <-q.ch
		q.waitSnapshot()
		q.setRunning(job)
		q.waitSnapshot()
		q.finish(job, StateSucceeded, mustEncode(numberedResult(i)), nil)
		q.waitSnapshot()
	}
	q.detachStore()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names := dirEntries(t, dir)
	if slices.Contains(names, "jobs.wal") {
		t.Errorf("directory after three snapshots still holds the legacy log: %v", names)
	}

	// Every legacy job is sealed, and the snapshot holds only jobs that
	// are not.
	w2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sealed []string
	state, err := w2.Replay(func(e []byte) error {
		var pj persistedJob
		if err := json.Unmarshal(e, &pj); err != nil {
			return err
		}
		sealed = append(sealed, pj.ID)
		return nil
	}, func(*store.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sealed[:min(len(ids), len(sealed))], ids) {
		t.Errorf("sealed jobs = %v, want the legacy jobs %v first", sealed, ids)
	}
	var live storeState
	if err := json.Unmarshal(state, &live); err != nil {
		t.Fatal(err)
	}
	for _, pj := range live.Jobs {
		if slices.Contains(sealed, pj.ID) {
			t.Errorf("snapshot holds sealed job %s", pj.ID)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3, srv3 := open()
	defer w3.Close()
	checkBodies(srv3)
	var before, after struct{ Jobs []json.RawMessage }
	if err := json.Unmarshal(wantList, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(get(srv3, "/v1/jobs"), &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Jobs) != len(ids)+3 {
		t.Fatalf("GET /v1/jobs lists %d jobs, want %d", len(after.Jobs), len(ids)+3)
	}
	for i, raw := range before.Jobs {
		if !bytes.Equal(after.Jobs[i], raw) {
			t.Errorf("GET /v1/jobs entry %d:\n got  %s\n want %s", i, after.Jobs[i], raw)
		}
	}
}

// dirEntries lists the names in dir.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range des {
		names = append(names, e.Name())
	}
	return names
}
