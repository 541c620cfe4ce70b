package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"dart/internal/store"
)

// TestLegacySolverWorkersIgnored: clients and WAL logs from before branch
// and bound became sequential send "solver_workers" in the job JSON. A
// replayed submit frame and a POST /v1/jobs body carrying it are admitted,
// run, and give the repair that a body without it gets.
func TestLegacySolverWorkersIgnored(t *testing.T) {
	doc, err := json.Marshal(runningExampleErrorHTML())
	if err != nil {
		t.Fatal(err)
	}
	body := func(extra string) []byte {
		return []byte(`{"document":` + string(doc) + `,"scenario":"cashbudget"` + extra + `}`)
	}
	plain, legacy := body(""), body(`,"solver_workers":4`)

	backends := []struct {
		name string
		open func(t *testing.T) store.JobStore
	}{
		{"wal", func(t *testing.T) store.JobStore {
			w, err := store.OpenWAL(t.TempDir(), store.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			return w
		}},
		{"mem", func(t *testing.T) store.JobStore { return store.NewMem() }},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			// An old log: two submitted jobs, the second with solver_workers.
			st := bk.open(t)
			for i, b := range [][]byte{plain, legacy} {
				if _, err := st.Append(&store.Record{
					Type:     store.RecSubmit,
					UnixNano: time.Now().UnixNano(),
					JobID:    fmt.Sprintf("job-%06d", i+1),
					State:    string(StateQueued),
					Blob:     b,
				}); err != nil {
					t.Fatal(err)
				}
			}
			_, ts := newTestServer(t, Config{Workers: 1, Store: st, StoreSnapshotEvery: -1})

			// An old client's body.
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(legacy))
			if err != nil {
				t.Fatal(err)
			}
			var posted JobView
			err = json.NewDecoder(resp.Body).Decode(&posted)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || err != nil {
				t.Fatalf("POST with solver_workers = %d (%v), want 202", resp.StatusCode, err)
			}

			repairOf := func(id string) string {
				t.Helper()
				v := pollJob(t, ts.URL, id)
				if v.State != StateSucceeded || v.Result == nil || v.Result.Repair == nil {
					t.Fatalf("job %s = %s (%s), want succeeded with a repair", id, v.State, v.Error)
				}
				b, err := json.Marshal(v.Result.Repair)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			want := repairOf("job-000001")
			for _, id := range []string{"job-000002", posted.ID} {
				if got := repairOf(id); got != want {
					t.Errorf("job %s repair %s, want %s", id, got, want)
				}
			}
		})
	}
}
