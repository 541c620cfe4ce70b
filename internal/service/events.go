package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dart/internal/obs"
	"dart/internal/sse"
)

// This file is the streaming face of the live telemetry bus: the
// /v1/events firehose, the per-job /v1/jobs/{id}/events stream, and the
// /v1/jobs/{id}/progress aggregate. Both streams speak Server-Sent Events
// and follow the same contract: replay the bus's retained ring first
// (filtered), then tail live events, each frame carrying the bus sequence
// number as its SSE id — so a consumer that reconnects with after_seq (or
// the standard Last-Event-ID header) resumes gaplessly as long as the gap
// still fits the ring.

// sseHeartbeat is the keep-alive comment interval of live streams; proxies
// that idle-close quiet connections see a frame at least this often.
const sseHeartbeat = 15 * time.Second

// eventFilter selects the subset of bus events one stream serves.
type eventFilter struct {
	kinds    map[obs.EventKind]bool // nil keeps every kind
	jobID    string                 // "" keeps every job
	afterSeq uint64                 // keep only events with Seq > afterSeq
}

func (f eventFilter) keep(ev obs.Event) bool {
	if ev.Seq <= f.afterSeq {
		return false
	}
	if f.jobID != "" && ev.JobID != f.jobID {
		return false
	}
	if f.kinds != nil && !f.kinds[ev.Kind] {
		return false
	}
	return true
}

// parseEventFilter reads the shared stream query parameters: kind (comma
// list of event kinds), after_seq (resume point; the Last-Event-ID header
// is the spec-standard fallback), and replay=only (serve the ring and
// close — the scripting/CI mode).
func parseEventFilter(r *http.Request) (f eventFilter, replayOnly bool, errMsg string) {
	q := r.URL.Query()
	if raw := q.Get("kind"); raw != "" {
		f.kinds = make(map[obs.EventKind]bool)
		for _, k := range strings.Split(raw, ",") {
			kind := obs.EventKind(strings.TrimSpace(k))
			known := false
			for _, ek := range obs.EventKinds {
				if ek == kind {
					known = true
					break
				}
			}
			if !known {
				return f, false, "unknown event kind " + strconv.Quote(string(kind))
			}
			f.kinds[kind] = true
		}
	}
	seqStr := q.Get("after_seq")
	if seqStr == "" {
		seqStr = r.Header.Get("Last-Event-ID")
	}
	if seqStr != "" {
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			return f, false, "after_seq must be a non-negative integer, got " + strconv.Quote(seqStr)
		}
		f.afterSeq = seq
	}
	return f, q.Get("replay") == "only", ""
}

// handleEvents is the firehose: every bus event (optionally filtered by
// kind and job), replayed from the ring then tailed live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.bus == nil {
		writeError(w, http.StatusNotImplemented, "live events are disabled (start dartd with -event-buffer > 0)")
		return
	}
	f, replayOnly, errMsg := parseEventFilter(r)
	if errMsg != "" {
		writeError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}
	f.jobID = r.URL.Query().Get("job")
	s.streamEvents(w, r, "firehose", f, replayOnly, false)
}

// handleJobEvents streams one job's events: a "snapshot" frame with the
// current progress aggregate, the job's retained ring events, then the
// live tail — closed cleanly once the job reaches a terminal state.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.bus == nil {
		writeError(w, http.StatusNotImplemented, "live events are disabled (start dartd with -event-buffer > 0)")
		return
	}
	id := r.PathValue("id")
	if _, ok := s.queue.status(id); !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	f, replayOnly, errMsg := parseEventFilter(r)
	if errMsg != "" {
		writeError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}
	f.jobID = id
	s.streamEvents(w, r, "job", f, replayOnly, true)
}

// streamEvents serves one SSE stream: subscribe (atomically snapshotting
// the replay ring), emit the snapshot frame (job streams), replay, then
// tail live until the client disconnects, the job terminates (job
// streams), or the server shuts the stream's context down.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, subName string, f eventFilter, replayOnly, jobStream bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	sub, replay := s.bus.Subscribe(subName, 0)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	if jobStream {
		// Orientation frame: where the job stands before any replay.
		prog, ok := s.bus.Progress(f.jobID)
		if !ok {
			prog = obs.JobProgress{JobID: f.jobID, Gap: 1, WorstGap: 1}
			if view, vok := s.queue.status(f.jobID); vok {
				prog.State = string(view.State)
			}
		}
		data, _ := json.Marshal(prog)
		if sse.WriteEvent(w, "", "snapshot", data) != nil {
			return
		}
	}
	terminal := false
	for _, ev := range replay {
		if !f.keep(ev) {
			continue
		}
		if writeBusEvent(w, ev) != nil {
			return
		}
		if jobStream && isTerminalJobEvent(ev) {
			terminal = true
		}
	}
	flusher.Flush()
	if replayOnly || (jobStream && terminal) {
		return
	}
	s.tail(r.Context(), w, flusher, sub, f, jobStream)
}

// tail streams live events from sub until ctx ends, the subscription
// closes, or — on a job stream — the job reaches a terminal state.
func (s *Server) tail(ctx context.Context, w io.Writer, flusher http.Flusher, sub *obs.Subscriber, f eventFilter, jobStream bool) {
	if jobStream {
		// The terminal transition may predate the replay ring (long-dead
		// job): the queue is the authority. It may also have been published
		// after the Subscribe snapshot, in which case its frame sits on sub
		// already: write what is buffered before closing.
		if view, ok := s.queue.status(f.jobID); ok && view.State.Terminal() {
			if _, err := drainBuffered(w, sub, f, true); err == nil {
				flusher.Flush()
			}
			return
		}
	}

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			if sse.WriteComment(w, "hb") != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			terminal := false
			if f.keep(ev) {
				if writeBusEvent(w, ev) != nil {
					return
				}
				terminal = jobStream && isTerminalJobEvent(ev)
			}
			// Drain whatever else is already buffered before flushing, so a
			// solver burst costs one flush, not one per event.
			drainedTerminal, err := drainBuffered(w, sub, f, jobStream)
			if err != nil {
				return
			}
			flusher.Flush()
			if terminal || drainedTerminal {
				return // clean close: the job is done
			}
		}
	}
}

// drainBuffered writes the events already buffered on sub that f keeps,
// without blocking, and reports whether one of them was a terminal job
// event (only looked for on job streams).
func drainBuffered(w io.Writer, sub *obs.Subscriber, f eventFilter, jobStream bool) (terminal bool, err error) {
	//dartvet:allow ctxloop -- bounded by the subscriber buffer: every pass either consumes a buffered event or exits via default
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return terminal, nil
			}
			if !f.keep(ev) {
				continue
			}
			if err := writeBusEvent(w, ev); err != nil {
				return terminal, err
			}
			if jobStream && isTerminalJobEvent(ev) {
				terminal = true
			}
		default:
			return terminal, nil
		}
	}
}

// writeBusEvent emits one bus event as an SSE frame named by its kind,
// with the bus sequence number as the frame id.
func writeBusEvent(w io.Writer, ev obs.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return sse.WriteEvent(w, strconv.FormatUint(ev.Seq, 10), string(ev.Kind), data)
}

// isTerminalJobEvent reports whether ev announces a terminal job state.
func isTerminalJobEvent(ev obs.Event) bool {
	return ev.Kind == obs.KindJob && ev.Name == "state" && JobState(ev.State).Terminal()
}

// handleJobProgress serves the live per-job aggregate the bus folds at
// publish time. A known job without any published events answers with a
// state-only aggregate, so pollers need no special case.
func (s *Server) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	if s.bus == nil {
		writeError(w, http.StatusNotImplemented, "live events are disabled (start dartd with -event-buffer > 0)")
		return
	}
	id := r.PathValue("id")
	view, ok := s.queue.status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	prog, ok := s.bus.Progress(id)
	if !ok {
		prog = obs.JobProgress{JobID: id, State: string(view.State), Gap: 1, WorstGap: 1}
	}
	writeJSON(w, http.StatusOK, prog)
}

// handleReadyz reports readiness: the store replay finished (construction
// would have failed otherwise), the worker pool is started, shutdown has
// not begun, and the queue can admit a submission. Liveness stays on
// /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := map[string]any{
		"started":   s.started.Load(),
		"draining":  s.Draining(),
		"accepting": s.queue.Accepting(),
	}
	if !s.Ready() {
		status["status"] = "unavailable"
		writeJSON(w, http.StatusServiceUnavailable, status)
		return
	}
	status["status"] = "ok"
	writeJSON(w, http.StatusOK, status)
}
