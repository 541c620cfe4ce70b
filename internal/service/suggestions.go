package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"dart/internal/obs"
	"dart/internal/repair"
)

// This file is the HTTP face of the auditable repair layer: jobs submitted
// with "validate": true run an interactive validation session whose
// suggestion ledger is worked through GET/POST /v1/jobs/{id}/suggestions
// (or the embedded workbench page) instead of a stdin operator. The worker
// parks on the ledger between re-solves; every decision is journaled to
// the job store as one RecRepair frame, so a killed server resumes the
// session with its queue, counters, and audit history intact.

// apiDecider parks the validation session until every open suggestion is
// decided over HTTP. Decisions happen concurrently through the job's
// published ledger; the decider itself never mutates anything.
type apiDecider struct{}

// Decide implements repair.Decider.
func (apiDecider) Decide(ctx context.Context, l *repair.Ledger, open []repair.Suggestion) error {
	return l.WaitNoOpen(ctx)
}

// runValidation processes one validate-mode job: acquisition as usual,
// then the repairing module driven by the HTTP suggestion queue. A re-run
// (process restart or in-process retry) restores the ledger from the
// job's durable event history, so already-made decisions are never asked
// twice.
func (s *Server) runValidation(ctx context.Context, job *Job) (*ResultJSON, error) {
	p, err := newPipeline(job.Spec)
	if err != nil {
		return nil, err
	}
	acq, err := p.AcquireContext(ctx, job.Spec.Document)
	if err != nil {
		return nil, err
	}
	if acq.Consistent() {
		// Nothing to validate; identical to the automatic path.
		return repairJob(ctx, p, acq, s.metrics)
	}
	ledger := repair.Restore(s.queue.repairEventsOf(job))
	// The observer is bound after Restore: replayed events are already
	// durable and must not be re-journaled or re-counted.
	ledger.SetObserver(func(ev repair.Event) {
		s.queue.noteRepairEvent(job, ev)
		s.metrics.RepairEvent(ev)
		s.bus.Publish(obs.Event{
			Kind:  obs.KindLedger,
			Name:  string(ev.Kind),
			JobID: job.ID,
			Scope: "suggestion:" + strconv.Itoa(ev.Suggestion.ID),
			State: string(ev.Suggestion.State),
			Value: ev.Suggestion.Confidence,
		})
	})
	p.Decider = apiDecider{}
	p.Ledger = ledger
	s.queue.setLedger(job, ledger)
	defer func() {
		ledger.Close()
		s.queue.setLedger(job, nil)
	}()
	return repairJob(ctx, p, acq, s.metrics)
}

// suggestionDecision is the body of POST /v1/jobs/{id}/suggestions/{sid}.
type suggestionDecision struct {
	// Action is accept, reject, or revert.
	Action string `json:"action"`
	// Seq is the optimistic-concurrency token: the suggestion's seq as the
	// client last read it.
	Seq uint64 `json:"seq"`
	// By is the audit identity (default "operator").
	By string `json:"by,omitempty"`
	// ActualValue is the true source value; required for reject.
	ActualValue *float64 `json:"actual_value,omitempty"`
}

// handleSuggestions lists a job's suggestion records: the live ledger of a
// running session, or — for finished and crashed-but-not-yet-resumed jobs —
// a view restored from the durable event history. Either way the full
// who/when audit trail is served.
func (s *Server) handleSuggestions(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ledger, ok := s.queue.sessionOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	live := ledger != nil
	if ledger == nil {
		ledger = repair.Restore(s.queue.repairEventsOf(job))
	}
	suggestions := ledger.List()
	writeJSON(w, http.StatusOK, map[string]any{
		"job_id":      id,
		"live":        live,
		"open":        ledger.OpenCount(),
		"count":       len(suggestions),
		"counters":    ledger.Counters(),
		"suggestions": suggestions,
	})
}

// handleSuggestionDecision applies one accept/reject/revert to a running
// session's ledger. Conflicts — a stale seq, a decision on an already
// decided suggestion, a session that just closed — answer 409 so clients
// re-read and retry deliberately rather than racing.
func (s *Server) handleSuggestionDecision(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ledger, ok := s.queue.sessionOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	_ = job
	if ledger == nil {
		writeError(w, http.StatusConflict, "job %q has no live validation session", id)
		return
	}
	sid, err := strconv.Atoi(r.PathValue("sid"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "suggestion id must be an integer, got %q", r.PathValue("sid"))
		return
	}
	var dec suggestionDecision
	d := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	d.DisallowUnknownFields()
	if err := d.Decode(&dec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed decision: %v", err)
		return
	}
	var sg repair.Suggestion
	switch dec.Action {
	case "accept":
		sg, err = ledger.Accept(sid, dec.By, dec.Seq)
	case "reject":
		if dec.ActualValue == nil {
			writeError(w, http.StatusBadRequest, "reject needs actual_value (the true source value)")
			return
		}
		sg, err = ledger.Reject(sid, *dec.ActualValue, dec.By, dec.Seq)
	case "revert":
		sg, err = ledger.Revert(sid, dec.By, dec.Seq)
	default:
		writeError(w, http.StatusBadRequest, "unknown action %q (want accept, reject or revert)", dec.Action)
		return
	}
	switch {
	case errors.Is(err, repair.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, repair.ErrSeqConflict), errors.Is(err, repair.ErrState), errors.Is(err, repair.ErrClosed):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if s.logger != nil {
		s.logger.Info("suggestion decided", "job_id", id,
			"suggestion", sg.ID, "action", dec.Action, "state", string(sg.State))
	}
	writeJSON(w, http.StatusOK, sg)
}

// handleWorkbench serves the embedded single-page operator workbench: a
// zero-dependency HTML view over the suggestions API for working a job's
// queue from a browser.
func (s *Server) handleWorkbench(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.status(id); !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(workbenchHTML))
}

// workbenchHTML is the embedded operator workbench. It derives the job ID
// from its own URL, polls the suggestions endpoint, and posts decisions
// with the seq each row was rendered from, so stale tabs get a visible
// conflict instead of silently overwriting fresher decisions.
const workbenchHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>DART repair workbench</title>
<style>
body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; margin: 2rem; background: #fafafa; color: #222; }
h1 { font-size: 1.2rem; }
table { border-collapse: collapse; width: 100%; background: #fff; }
th, td { border: 1px solid #ddd; padding: 0.4rem 0.6rem; text-align: left; font-size: 0.85rem; }
th { background: #f0f0f0; }
tr.proposed { background: #fffbe6; }
tr.accepted { background: #eaffea; }
tr.rejected { background: #ffecec; }
tr.reverted, tr.superseded { color: #888; }
button { margin-right: 0.3rem; }
#status { margin: 0.6rem 0; color: #555; }
input.actual { width: 6rem; }
</style>
</head>
<body>
<h1>DART repair workbench <span id="job"></span></h1>
<div id="status">loading&hellip;</div>
<table>
<thead><tr><th>id</th><th>cell</th><th>old</th><th>new</th><th>occ</th><th>conf</th><th>state</th><th>decided by</th><th>evidence</th><th>actions</th></tr></thead>
<tbody id="rows"></tbody>
</table>
<script>
"use strict";
const jobID = window.location.pathname.split("/")[3];
document.getElementById("job").textContent = jobID;
const base = "/v1/jobs/" + jobID + "/suggestions";
async function decide(id, seq, action, actual) {
  const body = { action: action, seq: seq };
  if (action === "reject") body.actual_value = parseFloat(actual);
  const resp = await fetch(base + "/" + id, { method: "POST",
    headers: { "Content-Type": "application/json" }, body: JSON.stringify(body) });
  if (!resp.ok) {
    const err = await resp.json().catch(() => ({}));
    document.getElementById("status").textContent = "error: " + (err.error || resp.status);
  }
  refresh();
}
function cell(s) { return s.relation + "[" + s.tuple + "]." + s.attr; }
function render(data) {
  document.getElementById("status").textContent =
    (data.live ? "session live" : "session finished") + " — " + data.open + " open of " + data.count;
  const rows = document.getElementById("rows");
  rows.textContent = "";
  for (const s of data.suggestions) {
    const tr = document.createElement("tr");
    tr.className = s.state;
    const actions = document.createElement("td");
    if (data.live && s.state === "proposed") {
      const acc = document.createElement("button");
      acc.textContent = "accept";
      acc.onclick = () => decide(s.id, s.seq, "accept");
      const actual = document.createElement("input");
      actual.className = "actual";
      actual.placeholder = "actual";
      actual.value = s.old;
      const rej = document.createElement("button");
      rej.textContent = "reject";
      rej.onclick = () => decide(s.id, s.seq, "reject", actual.value);
      actions.append(acc, rej, actual);
    } else if (data.live && s.state === "accepted") {
      const rev = document.createElement("button");
      rev.textContent = "revert";
      rev.onclick = () => decide(s.id, s.seq, "revert");
      actions.append(rev);
    }
    for (const v of [s.id, cell(s), s.old, s.new, s.occurrences,
                     s.confidence.toFixed(3), s.state, s.decided_by || "",
                     (s.evidence || []).join("; ")]) {
      const td = document.createElement("td");
      td.textContent = v;
      tr.append(td);
    }
    tr.append(actions);
    rows.append(tr);
  }
}
async function refresh() {
  try {
    const resp = await fetch(base);
    if (resp.ok) render(await resp.json());
  } catch (e) {
    document.getElementById("status").textContent = "fetch failed: " + e;
  }
}
refresh();
// Prefer push over poll: tail the job's live event stream and re-fetch on
// every ledger or job-state change. When the stream is unavailable (bus
// disabled, proxy strips SSE, old browser) fall back to 2s polling.
function poll() { setInterval(refresh, 2000); }
if (window.EventSource) {
  const es = new EventSource("/v1/jobs/" + jobID + "/events?kind=ledger,job");
  es.addEventListener("ledger", refresh);
  es.addEventListener("job", refresh);
  es.onerror = () => { es.close(); poll(); };
} else {
  poll();
}
</script>
</body>
</html>
`
