package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"dart"
	"dart/internal/analysis/specvet"
)

// maxBodyBytes bounds request bodies (documents are page-sized; 8 MiB is
// generous).
const maxBodyBytes = 8 << 20

// routes registers the HTTP API on the server's mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/suggestions", s.handleSuggestions)
	s.mux.HandleFunc("POST /v1/jobs/{id}/suggestions/{sid}", s.handleSuggestionDecision)
	s.mux.HandleFunc("GET /v1/jobs/{id}/workbench", s.handleWorkbench)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleJobProgress)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.enablePprof {
		// The debug mux of net/http/pprof registers on DefaultServeMux;
		// mount the handlers explicitly so the flag actually gates them.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeJob emits one job with its result as writeJSON would encode the
// view with the decoded result, without decoding it: the job's encoded
// result is spliced in after the members before it, followed by
// trace_id, the only member JobView declares after result.
func writeJob(w http.ResponseWriter, view JobView, result []byte) {
	if result == nil {
		writeJSON(w, http.StatusOK, view)
		return
	}
	traceID := view.TraceID
	view.TraceID = ""
	head, err := marshalJSON(view)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding job %s: %v", view.ID, err)
		return
	}
	body := make([]byte, 0, len(head)+len(result)+len(traceID)+32)
	body = append(body, head[:len(head)-1]...) // the view always has an id: drop its '}'
	body = append(body, `,"result":`...)
	body = append(body, result...)
	if traceID != "" {
		id, err := marshalJSON(traceID)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding job %s: %v", view.ID, err)
			return
		}
		body = append(body, `,"trace_id":`...)
		body = append(body, id...)
	}
	body = append(body, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeError emits one JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit accepts one job: it validates the spec eagerly (so malformed
// scenarios and metadata fail at submission, not in a worker) and enqueues.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed job spec: %v", err)
		return
	}
	if spec.Document == "" {
		writeError(w, http.StatusBadRequest, "job spec needs a document")
		return
	}
	md, err := ResolveMetadata(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Admission-time spec vetting: the same checks dartvet -spec runs.
	// Rejecting here turns a doomed worker run into an immediate,
	// machine-readable 422.
	if diags := specvet.Vet(md); len(diags) > 0 {
		s.metrics.SpecRejected()
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":       fmt.Sprintf("spec failed vetting with %d diagnostic(s)", len(diags)),
			"diagnostics": diags,
		})
		return
	}
	if _, err := dart.SolverNamed(spec.Solver); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := s.queue.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.metrics.JobSubmitted()
	if s.logger != nil {
		s.logger.Info("job submitted", "job_id", view.ID,
			"scenario", spec.Scenario, "solver", spec.Solver)
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// handleList returns jobs in submission order, results omitted.
// Query parameters:
//
//	state   keep only jobs in this lifecycle state
//	limit   page size (0 or absent returns everything)
//	cursor  resume after this job ID (the next_cursor of the prior page)
//
// The response carries next_cursor whenever more matching jobs remain.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	state := JobState(params.Get("state"))
	if state != "" && !knownState(state) {
		writeError(w, http.StatusBadRequest, "unknown state %q (want one of %v)", string(state), JobStates)
		return
	}
	limit := 0
	if q := params.Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", q)
			return
		}
		limit = v
	}
	jobs, next, err := s.queue.ListPage(state, params.Get("cursor"), limit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := map[string]any{
		"jobs":  jobs,
		"count": len(jobs),
	}
	if next != "" {
		resp["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

// knownState reports whether s is one of the lifecycle states.
func knownState(s JobState) bool {
	for _, st := range JobStates {
		if st == s {
			return true
		}
	}
	return false
}

// handleGet returns one job with its result.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, result, ok := s.queue.getEncoded(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJob(w, view, result)
}

// handleJobTrace serves one job's span tree. 404 covers both an unknown job
// and a trace already evicted from the ring buffer.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.queue.status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if view.TraceID == "" {
		writeError(w, http.StatusNotFound, "job %q has not started (no trace yet)", id)
		return
	}
	tr, ok := s.tracer.Trace(view.TraceID)
	if !ok {
		writeError(w, http.StatusNotFound, "trace %s evicted from the ring buffer", view.TraceID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job_id":      id,
		"trace_id":    tr.TraceID,
		"state":       view.State,
		"start":       tr.Start,
		"duration_ns": tr.DurationNS,
		"spans":       len(tr.Spans),
		"tree":        tr.Tree(),
	})
}

// traceSummary is one row of GET /debug/traces.
type traceSummary struct {
	TraceID    string  `json:"trace_id"`
	Name       string  `json:"name"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	JobID      string  `json:"job_id,omitempty"`
}

// handleDebugTraces lists the N slowest recent traces (default 10).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "n must be a positive integer, got %q", q)
			return
		}
		n = v
	}
	slowest := s.tracer.Slowest(n)
	out := make([]traceSummary, 0, len(slowest))
	for _, tr := range slowest {
		row := traceSummary{
			TraceID:    tr.TraceID,
			Name:       tr.Name,
			Start:      tr.Start.Format("2006-01-02T15:04:05.000Z07:00"),
			DurationMS: float64(tr.DurationNS) / 1e6,
			Spans:      len(tr.Spans),
		}
		if root := tr.Tree(); root != nil && root.Attrs != nil {
			if id, ok := root.Attrs["job_id"].(string); ok {
				row.JobID = id
			}
		}
		out = append(out, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": out,
		"count":  len(out),
	})
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": s.pool.workerCount(),
		"queued":  s.queue.Depth(),
	})
}

// handleMetrics exposes the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}
