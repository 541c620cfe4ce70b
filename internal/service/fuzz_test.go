package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"dart/internal/docgen"
	"dart/internal/scenario"
	"dart/internal/store"
)

// FuzzSubmitJob posts arbitrary bodies to POST /v1/jobs on a server with
// an in-memory store and no workers. No body may panic the handler or
// make it allocate from a hostile length. A body is either rejected with
// 400 or 422, adding no job and no store record, or admitted with 202;
// an admitted spec must read back through GET /v1/jobs/{id} and from the
// store's submit record exactly as the handler decoded it.
//
// One server serves many inputs of a fuzzing process, so an exec costs a
// request rather than a server; it is replaced after fuzzServerJobs
// admissions, long before its queue fills, so every admission sees the
// same spare capacity and the listing stays short.
func FuzzSubmitJob(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	docs := map[string]string{
		"cashbudget":   runningExampleErrorHTML(),
		"catalog":      docgen.OrdersDocument(docgen.RandomOrders(rng, 3)).HTML(),
		"balancesheet": docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2001, 1)).HTML(),
	}
	add := func(spec JobSpec) {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for name, doc := range docs {
		add(JobSpec{Document: doc, Scenario: name})
		add(JobSpec{Document: doc, Scenario: name, Validate: true, TimeoutMS: 500})
	}
	for _, solver := range []string{"", "milp", "milp-literal", "cardsearch", "greedy-aggregate", "greedy-local", "simplex"} {
		add(JobSpec{Document: docs["cashbudget"], Scenario: "cashbudget", Solver: solver, SolverWorkers: 2})
	}
	add(JobSpec{Document: docs["cashbudget"], Metadata: scenario.CashBudgetSource()})
	add(JobSpec{Document: "x", Metadata: vetFailingMetadata})
	add(JobSpec{Document: "<td> </td>", Scenario: "catalog"})
	for _, raw := range []string{
		``, `null`, `[]`, `{`, `{}`, `{"document":""}`,
		`{"document":"x","scenario":"nope"}`,
		`{"document":"x","bogus":1}`,
		`{"document":"x","timeout_ms":1e400}`,
		`{"document":"x","solver_workers":-3,"scenario":"catalog"}`,
		`{"document":"x","scenario":"catalog"} trailing`,
		`{"document":"é\xff","scenario":"catalog"}`,
	} {
		f.Add([]byte(raw))
	}

	var (
		mem      *store.Mem
		srv      *Server
		admitted int
	)
	f.Fuzz(func(t *testing.T, body []byte) {
		if srv == nil || admitted == fuzzServerJobs {
			mem = store.NewMem()
			var err error
			if srv, err = New(Config{Store: mem, StoreSnapshotEvery: -1}); err != nil {
				t.Fatal(err)
			}
			admitted = 0
		}
		h := srv.Handler()
		jobsBefore, appendsBefore := len(srv.Queue().List()), mem.Stats().Appends
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+1024*len(body)); grew > limit {
			t.Fatalf("submitting a %d-byte body allocated %d bytes, over %d", len(body), grew, limit)
		}

		switch rec.Code {
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			if n := len(srv.Queue().List()) - jobsBefore; n != 0 {
				t.Fatalf("rejected body (%d) added %d jobs", rec.Code, n)
			}
			if n := mem.Stats().Appends - appendsBefore; n != 0 {
				t.Fatalf("rejected body (%d) added %d store records", rec.Code, n)
			}
			return
		case http.StatusAccepted:
			admitted++
		default:
			t.Fatalf("POST /v1/jobs = %d: %s", rec.Code, rec.Body)
		}

		// The spec as the handler admitted it.
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("admitted body does not decode: %v", err)
		}
		var posted JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &posted); err != nil {
			t.Fatal(err)
		}

		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+posted.ID, nil))
		var got JobView
		if err := json.Unmarshal(get.Body.Bytes(), &got); get.Code != http.StatusOK || err != nil {
			t.Fatalf("GET %s = %d (%v): %s", posted.ID, get.Code, err, get.Body)
		}
		if got.ID != posted.ID || got.State != StateQueued || got.Scenario != spec.Scenario || got.Solver != spec.Solver {
			t.Fatalf("GET %s = %+v, want the queued job of %+v", posted.ID, got, spec)
		}

		if n := mem.Stats().Appends - appendsBefore; n != 1 {
			t.Fatalf("one admission added %d store records, want its submit record", n)
		}
		var stored []*store.Record
		if _, err := mem.Replay(noSealed, func(r *store.Record) error {
			if r.JobID == posted.ID {
				stored = append(stored, r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(stored) != 1 || stored[0].Type != store.RecSubmit {
			t.Fatalf("store holds %d records of %s after its admission, want its submit record", len(stored), posted.ID)
		}
		var durable JobSpec
		if err := json.Unmarshal(stored[0].Blob, &durable); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(durable, spec) {
			t.Fatalf("durable spec differs from the admitted one:\n got  %+v\n want %+v", durable, spec)
		}
	})
}

// fuzzServerJobs is how many admissions one FuzzSubmitJob server takes
// before it is replaced: well below the default queue capacity of 1024.
const fuzzServerJobs = 16
