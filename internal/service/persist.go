package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
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
//
// Snapshots stall nobody. Under q.mu a snapshot only captures the job
// list — references to the cached bytes of terminal jobs, copies of the
// few live ones — and the sequence number of the queue's last append.
// One goroutine then splices the blob together and hands it to
// JobStore.WriteSnapshot(through, blob), which keeps every record
// appended after through. Lock order is q.mu, then the store's own lock;
// the snapshot file is written under neither.

// persistedJob is the snapshot form of one job. Timestamps are UnixNano
// so replayed JobViews re-encode byte-identically to the originals.
// Result is the last member: a snapshot splices a terminal job's cached
// result bytes after its cached head.
type persistedJob struct {
	ID          string   `json:"id"`
	Spec        JobSpec  `json:"spec"`
	State       JobState `json:"state"`
	Attempts    int      `json:"attempts"`
	SubmittedAt int64    `json:"submitted_at"`
	StartedAt   int64    `json:"started_at,omitempty"`
	FinishedAt  int64    `json:"finished_at,omitempty"`
	Error       string   `json:"error,omitempty"`
	TraceID     string   `json:"trace_id,omitempty"`
	// RepairEvents is the job's suggestion-event history (validation
	// sessions only): the full ledger journal, so a snapshot alone can
	// restore an interrupted session's queue and audit trail.
	RepairEvents []repair.Event  `json:"repair_events,omitempty"`
	Result       json.RawMessage `json:"result,omitempty"`
}

// persistedOf copies a job's persisted fields; the caller holds q.mu.
// The result bytes are shared, as they never change.
func persistedOf(job *Job) persistedJob {
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
		Result:      job.result,
	}
	if len(job.RepairEvents) > 0 {
		pj.RepairEvents = append([]repair.Event(nil), job.RepairEvents...)
	}
	return pj
}

// encodeHead encodes the job's snapshot entry without its result.
func (pj persistedJob) encodeHead() ([]byte, error) {
	pj.Result = nil
	return marshalJSON(pj)
}

// appendEntry appends one job's snapshot entry: its head, with the
// result bytes spliced in as the last member.
func appendEntry(buf, head, result []byte) []byte {
	if len(result) == 0 {
		return append(buf, head...)
	}
	buf = append(buf, head[:len(head)-1]...) // the head is a non-empty object: drop its '}'
	buf = append(buf, `,"result":`...)
	buf = append(buf, result...)
	return append(buf, '}')
}

// jsonBufs recycles marshalJSON's encoding buffers.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalJSON encodes v as writeJSON does, with HTML escaping off, into a
// slice of its own and without the encoder's trailing newline.
func marshalJSON(v any) ([]byte, error) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	return append([]byte(nil), b[:len(b)-1]...), nil
}

// canonicalResult returns recovered result bytes as finish encodes them.
// Older builds persisted results with HTML escaping on (\u003c for <) and
// served them decoded: bytes holding such an escape are decoded and
// encoded again, so the job is served as before the restart. All other
// bytes are kept as they are, without decoding.
func canonicalResult(b []byte) []byte {
	if !htmlEscaped(b) {
		return b
	}
	var res ResultJSON
	if json.Unmarshal(b, &res) != nil {
		return b
	}
	if out, err := marshalJSON(&res); err == nil {
		return out
	}
	return b
}

// htmlEscaped reports whether the JSON text b holds an escaped <, > or &,
// which marshalJSON never writes.
func htmlEscaped(b []byte) bool {
	if !bytes.Contains(b, []byte(`\u00`)) {
		return false
	}
	backslashes := 0
	for i, c := range b {
		if c == '\\' {
			backslashes++
			continue
		}
		if backslashes%2 == 1 && c == 'u' && i+5 <= len(b) {
			switch string(b[i+1 : i+5]) {
			case "003c", "003e", "0026":
				return true
			}
		}
		backslashes = 0
	}
	return false
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
	seq, err := q.store.Append(rec)
	if err != nil {
		q.reportStoreErrorLocked(err)
		return
	}
	q.lastSeq = seq
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
	seq, err := q.store.Append(&store.Record{
		Type:     store.RecSubmit,
		UnixNano: job.SubmittedAt.UnixNano(),
		JobID:    job.ID,
		State:    string(StateQueued),
		Blob:     spec,
	})
	if err == nil {
		q.lastSeq = seq
	}
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

// appendResultLocked records the job's encoded terminal result.
func (q *Queue) appendResultLocked(job *Job) {
	if job.result == nil {
		return
	}
	q.persistLocked(&store.Record{
		Type:     store.RecResult,
		UnixNano: job.FinishedAt.UnixNano(),
		JobID:    job.ID,
		Blob:     job.result,
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

// maybeSnapshotLocked starts a snapshot once the configured number of
// appends has accumulated. Under q.mu it only captures the job list; a
// goroutine assembles the blob and writes it. At most one snapshot is in
// flight: a trigger meanwhile is dropped, and the first append after the
// snapshot finishes triggers again if the log is still over the bound.
func (q *Queue) maybeSnapshotLocked() {
	if q.store == nil || q.snapshotEvery <= 0 || q.snapDone != nil {
		return
	}
	if q.store.AppendsSinceSnapshot() < q.snapshotEvery {
		return
	}
	c := q.captureLocked()
	done := make(chan struct{})
	q.snapDone = done
	go q.writeSnapshot(q.store, c, done)
}

// snapshotCapture is what a snapshot takes under q.mu: the job list in
// submission order and the sequence number through which it covers the
// log.
type snapshotCapture struct {
	through uint64
	nextID  int
	jobs    []snapshotJob
}

// snapshotJob is one captured job: the cached head and result of a
// terminal job, or a copy of a job whose head is not encoded yet.
type snapshotJob struct {
	head, result []byte
	live         *persistedJob
}

// captureLocked captures the queue for a snapshot.
func (q *Queue) captureLocked() *snapshotCapture {
	c := &snapshotCapture{through: q.lastSeq, nextID: q.nextID, jobs: make([]snapshotJob, len(q.order))}
	for i, id := range q.order {
		job := q.jobs[id]
		if job.head != nil {
			c.jobs[i] = snapshotJob{head: job.head, result: job.result}
			continue
		}
		pj := persistedOf(job)
		c.jobs[i] = snapshotJob{live: &pj}
	}
	return c
}

// writeSnapshot assembles a captured snapshot and writes it to st, off
// q.mu, then marks the snapshot finished.
func (q *Queue) writeSnapshot(st store.JobStore, c *snapshotCapture, done chan struct{}) {
	state, err := c.encode()
	if err == nil {
		err = st.WriteSnapshot(c.through, state)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err != nil {
		q.reportStoreErrorLocked(err)
	}
	q.snapDone = nil
	close(done)
}

// waitSnapshot blocks until no snapshot is in flight. The caller must not
// hold q.mu.
func (q *Queue) waitSnapshot() {
	q.mu.Lock()
	done := q.snapDone
	q.mu.Unlock()
	if done != nil {
		<-done
	}
}

// encode assembles the snapshot blob, a storeState in JSON: terminal jobs
// are spliced from their cached bytes, and only the others are encoded,
// first, so that the blob is sized exactly.
func (c *snapshotCapture) encode() ([]byte, error) {
	size := 64
	for i := range c.jobs {
		j := &c.jobs[i]
		if j.live != nil {
			head, err := j.live.encodeHead()
			if err != nil {
				return nil, err
			}
			j.head, j.result = head, j.live.Result
		}
		size += len(j.head) + len(j.result) + len(`,"result":`) + 1
	}
	buf := make([]byte, 0, size)
	buf = append(buf, `{"next_id":`...)
	buf = strconv.AppendInt(buf, int64(c.nextID), 10)
	buf = append(buf, `,"jobs":[`...)
	for i, j := range c.jobs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendEntry(buf, j.head, j.result)
	}
	return append(buf, "]}"...), nil
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
				job.result = canonicalResult(pj.Result)
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
	// running when the previous process died. Terminal jobs get their
	// snapshot head, as finish would have given them.
	now := time.Now()
	var requeued []*Job
	for _, id := range q.order {
		job := q.jobs[id]
		switch {
		case job.State.Terminal():
			stats.Completed++
			if head, err := persistedOf(job).encodeHead(); err == nil {
				setHeadLocked(job, head)
			}
		case len(q.ch) < cap(q.ch):
			job.State = StateQueued
			job.StartedAt = time.Time{}
			job.FinishedAt = time.Time{}
			job.Error = ""
			job.result = nil
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
			job.result = nil
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
		if !json.Valid(rec.Blob) {
			stats.Orphans++
			return
		}
		job.result = canonicalResult(rec.Blob)
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
