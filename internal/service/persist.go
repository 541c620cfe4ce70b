package service

import (
	"encoding/json"
	"fmt"
	"time"

	"dart/internal/repair"
	"dart/internal/store"
)

// This file is the bridge between the in-memory queue and the durable
// job store: every queue mutation appends one record (submit, state
// transition, result, repair event), periodic snapshots absorb the log,
// and RecoverQueue replays snapshot + log back into a live queue at boot.
//
// Append ordering is the crash-safety argument: a job's result record is
// written before its terminal transition, so a crash between the two
// leaves the job non-terminal and recovery re-runs it instead of serving
// a half-recorded state; the submit record is written before the job is
// exposed to workers, so no job can run without a durable spec.

// persistedJob is the snapshot form of one job. Timestamps are UnixNano
// so replayed JobViews re-encode byte-identically to the originals.
type persistedJob struct {
	ID          string          `json:"id"`
	Spec        JobSpec         `json:"spec"`
	State       JobState        `json:"state"`
	Attempts    int             `json:"attempts"`
	SubmittedAt int64           `json:"submitted_at"`
	StartedAt   int64           `json:"started_at,omitempty"`
	FinishedAt  int64           `json:"finished_at,omitempty"`
	Error       string          `json:"error,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	// RepairEvents is the job's suggestion-event history (validation
	// sessions only): the full ledger journal, so a snapshot alone can
	// restore an interrupted session's queue and audit trail.
	RepairEvents []repair.Event `json:"repair_events,omitempty"`
}

// storeState is the snapshot blob handed to JobStore.WriteSnapshot: the
// whole queue, in submission order.
type storeState struct {
	NextID int            `json:"next_id"`
	Jobs   []persistedJob `json:"jobs"`
}

// nanoTime converts a persisted UnixNano back to a wall-clock time; 0 is
// the zero time.
func nanoTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// unixNano converts a possibly-zero time to its persisted form.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// reportStoreErrorLocked routes a non-fatal persistence failure (a
// transition or result append on a job already accepted) to the bound
// observer; the job still completes in memory.
func (q *Queue) reportStoreErrorLocked(err error) {
	if q.onStoreError != nil {
		q.onStoreError(err)
	}
}

// persistLocked appends one record best-effort and schedules a snapshot
// when the log has grown past the configured bound.
func (q *Queue) persistLocked(rec *store.Record) {
	if q.store == nil {
		return
	}
	if _, err := q.store.Append(rec); err != nil {
		q.reportStoreErrorLocked(err)
		return
	}
	q.maybeSnapshotLocked()
}

// appendSubmitLocked durably records a new job before it is exposed to
// workers; unlike the other appends, failure here is fatal to the
// submission (the caller rolls back). It never snapshots: the job is not
// registered yet, so a snapshot would omit it and truncate the log that
// holds its submit frame. Submit snapshots once the job is registered.
func (q *Queue) appendSubmitLocked(job *Job) error {
	if q.store == nil {
		return nil
	}
	spec, err := json.Marshal(job.Spec)
	if err != nil {
		return err
	}
	_, err = q.store.Append(&store.Record{
		Type:     store.RecSubmit,
		UnixNano: job.SubmittedAt.UnixNano(),
		JobID:    job.ID,
		State:    string(StateQueued),
		Blob:     spec,
	})
	return err
}

// appendTransitionLocked records the job's current state.
func (q *Queue) appendTransitionLocked(job *Job, at time.Time) {
	q.persistLocked(&store.Record{
		Type:     store.RecTransition,
		UnixNano: at.UnixNano(),
		JobID:    job.ID,
		State:    string(job.State),
		Attempts: job.Attempts,
		TraceID:  job.TraceID,
		Error:    job.Error,
	})
}

// appendResultLocked records the job's terminal result payload.
func (q *Queue) appendResultLocked(job *Job) {
	if q.store == nil || job.Result == nil {
		return
	}
	blob, err := json.Marshal(job.Result)
	if err != nil {
		q.reportStoreErrorLocked(err)
		return
	}
	q.persistLocked(&store.Record{
		Type:     store.RecResult,
		UnixNano: job.FinishedAt.UnixNano(),
		JobID:    job.ID,
		Blob:     blob,
	})
}

// noteRepairEvent folds one suggestion-ledger event into the job's
// durable history: appended to the in-memory slice (snapshots carry it)
// and journaled as one RecRepair frame. It is the ledger observer's
// landing point, called from session goroutines while the ledger's own
// lock is held — safe because no queue path ever takes a ledger mutex
// under q.mu.
func (q *Queue) noteRepairEvent(job *Job, ev repair.Event) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job.RepairEvents = append(job.RepairEvents, ev)
	if q.store == nil {
		return
	}
	blob, err := json.Marshal(ev)
	if err != nil {
		q.reportStoreErrorLocked(err)
		return
	}
	q.persistLocked(&store.Record{
		Type:     store.RecRepair,
		UnixNano: ev.At,
		JobID:    job.ID,
		State:    string(ev.Kind),
		Blob:     blob,
	})
}

// maybeSnapshotLocked writes a snapshot (absorbing and truncating the
// log) once the configured number of appends has accumulated.
func (q *Queue) maybeSnapshotLocked() {
	if q.store == nil || q.snapshotEvery <= 0 {
		return
	}
	if q.store.AppendsSinceSnapshot() < q.snapshotEvery {
		return
	}
	state, err := json.Marshal(q.stateLocked())
	if err != nil {
		q.reportStoreErrorLocked(err)
		return
	}
	if err := q.store.WriteSnapshot(state); err != nil {
		q.reportStoreErrorLocked(err)
	}
}

// stateLocked serializes the whole queue for a snapshot.
func (q *Queue) stateLocked() storeState {
	st := storeState{NextID: q.nextID, Jobs: make([]persistedJob, 0, len(q.order))}
	for _, id := range q.order {
		job := q.jobs[id]
		pj := persistedJob{
			ID:          job.ID,
			Spec:        job.Spec,
			State:       job.State,
			Attempts:    job.Attempts,
			SubmittedAt: job.SubmittedAt.UnixNano(),
			StartedAt:   unixNano(job.StartedAt),
			FinishedAt:  unixNano(job.FinishedAt),
			Error:       job.Error,
			TraceID:     job.TraceID,
		}
		if len(job.RepairEvents) > 0 {
			pj.RepairEvents = append([]repair.Event(nil), job.RepairEvents...)
		}
		if job.Result != nil {
			if raw, err := json.Marshal(job.Result); err == nil {
				pj.Result = raw
			}
		}
		st.Jobs = append(st.Jobs, pj)
	}
	return st
}

// SyncStore flushes the attached store to stable storage; graceful drain
// calls it so a clean shutdown never depends on replaying unsynced
// frames. A queue without a store reports success.
func (q *Queue) SyncStore() error {
	q.mu.Lock()
	st := q.store
	q.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Sync()
}

// RecoveryStats summarizes one boot-time replay.
type RecoveryStats struct {
	// SnapshotJobs counts jobs restored from the snapshot blob.
	SnapshotJobs int
	// Records counts log records applied on top of the snapshot.
	Records int
	// Requeued counts jobs that were queued or running at crash time and
	// were re-enqueued for workers.
	Requeued int
	// Completed counts terminal jobs restored with their results intact.
	Completed int
	// Dropped counts non-terminal jobs that could not be re-enqueued
	// (recovered backlog exceeded the queue capacity); they are marked
	// failed rather than silently lost.
	Dropped int
	// Orphans counts records referencing unknown jobs (should be zero;
	// tracked defensively).
	Orphans int
	// Duration is the wall-clock replay time.
	Duration time.Duration
}

// RecoverQueue rebuilds a queue from a job store: snapshot first, then
// every log record, then re-enqueueing of each job that was pending or
// running at crash time (completed jobs keep their results and are never
// re-solved). The returned queue persists through st from then on.
func RecoverQueue(capacity int, st store.JobStore, snapshotEvery int, onStoreError func(error)) (*Queue, *RecoveryStats, error) {
	q := NewQueue(capacity)
	q.snapshotEvery = snapshotEvery
	q.onStoreError = onStoreError
	stats := &RecoveryStats{}
	start := time.Now()

	// Collect records first: the snapshot blob arrives at the end of
	// Replay but must be applied before the records layered on top of it.
	var recs []*store.Record
	snap, err := st.Replay(func(rec *store.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("service: store replay: %w", err)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if snap != nil {
		var state storeState
		if err := json.Unmarshal(snap, &state); err != nil {
			return nil, nil, fmt.Errorf("service: decoding store snapshot: %w", err)
		}
		q.nextID = state.NextID
		for i := range state.Jobs {
			pj := &state.Jobs[i]
			job := &Job{
				ID:          pj.ID,
				Spec:        pj.Spec,
				State:       pj.State,
				Attempts:    pj.Attempts,
				SubmittedAt: nanoTime(pj.SubmittedAt),
				StartedAt:   nanoTime(pj.StartedAt),
				FinishedAt:  nanoTime(pj.FinishedAt),
				Error:       pj.Error,
				TraceID:     pj.TraceID,
			}
			if len(pj.RepairEvents) > 0 {
				job.RepairEvents = append([]repair.Event(nil), pj.RepairEvents...)
			}
			if len(pj.Result) > 0 {
				var res ResultJSON
				if err := json.Unmarshal(pj.Result, &res); err == nil {
					job.Result = &res
				}
			}
			q.jobs[job.ID] = job //dartvet:allow walorder -- snapshot replay: the record set being made visible is already durable
			q.order = append(q.order, job.ID)
		}
		stats.SnapshotJobs = len(state.Jobs)
	}
	for _, rec := range recs {
		q.applyRecordLocked(rec, stats)
	}
	stats.Records = len(recs)

	// Re-enqueue everything non-terminal: those jobs were queued or
	// running when the previous process died.
	now := time.Now()
	var requeued []*Job
	for _, id := range q.order {
		job := q.jobs[id]
		switch {
		case job.State.Terminal():
			stats.Completed++
		case len(q.ch) < cap(q.ch):
			job.State = StateQueued
			job.StartedAt = time.Time{}
			job.FinishedAt = time.Time{}
			job.Error = ""
			job.Result = nil
			q.ch <- job //dartvet:allow walorder -- recovery requeue: the job was replayed from the durable log, not newly accepted
			requeued = append(requeued, job)
			stats.Requeued++
		default:
			job.State = StateFailed
			job.FinishedAt = now
			job.Error = "service: recovered backlog exceeded queue capacity"
			stats.Dropped++
		}
	}

	// Only now attach the store: replay itself must not append, but the
	// requeue decisions become part of the durable history.
	q.store = st
	for _, job := range requeued {
		q.appendTransitionLocked(job, now)
	}
	stats.Duration = time.Since(start)
	return q, stats, nil
}

// applyRecordLocked folds one replayed record into the queue state.
func (q *Queue) applyRecordLocked(rec *store.Record, stats *RecoveryStats) {
	switch rec.Type {
	case store.RecSubmit:
		var spec JobSpec
		if err := json.Unmarshal(rec.Blob, &spec); err != nil {
			stats.Orphans++
			return
		}
		job := &Job{
			ID:          rec.JobID,
			Spec:        spec,
			State:       StateQueued,
			SubmittedAt: rec.Time(),
		}
		q.jobs[job.ID] = job //dartvet:allow walorder -- applying a replayed record: it is already in the durable log
		q.order = append(q.order, job.ID)
		// Keep ID allocation ahead of every replayed job.
		var n int
		if _, err := fmt.Sscanf(rec.JobID, "job-%d", &n); err == nil && n > q.nextID {
			q.nextID = n
		}
	case store.RecTransition:
		job, ok := q.jobs[rec.JobID]
		if !ok {
			stats.Orphans++
			return
		}
		job.State = JobState(rec.State)
		job.Attempts = rec.Attempts
		switch {
		case job.State == StateQueued:
			// A recovery requeue from a previous incarnation: runtime
			// fields reset with it.
			job.StartedAt = time.Time{}
			job.FinishedAt = time.Time{}
			job.Error = ""
			job.Result = nil
		case job.State == StateRunning:
			if job.StartedAt.IsZero() {
				job.StartedAt = rec.Time()
			}
			if rec.TraceID != "" {
				job.TraceID = rec.TraceID
			}
		case job.State.Terminal():
			job.FinishedAt = rec.Time()
			job.Error = rec.Error
		}
	case store.RecResult:
		job, ok := q.jobs[rec.JobID]
		if !ok {
			stats.Orphans++
			return
		}
		var res ResultJSON
		if err := json.Unmarshal(rec.Blob, &res); err != nil {
			stats.Orphans++
			return
		}
		job.Result = &res
	case store.RecSpans:
		// Written only by older builds, as an audit marker after a job's
		// spans were exported; nothing to fold into queue state.
	case store.RecRepair:
		job, ok := q.jobs[rec.JobID]
		if !ok {
			stats.Orphans++
			return
		}
		var ev repair.Event
		if err := json.Unmarshal(rec.Blob, &ev); err != nil {
			stats.Orphans++
			return
		}
		// The event history survives requeues: a re-run validation session
		// restores its ledger from it instead of starting over.
		job.RepairEvents = append(job.RepairEvents, ev)
	}
}
