package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
// A snapshot costs what changed since the last one. The queue keeps the
// jobs it has not sealed yet (q.unsealed); under q.mu a snapshot walks
// only those and captures references to the cached bytes of the
// terminal ones, copies of the few live ones, and the sequence number of
// the queue's last append. One goroutine then splices each terminal
// job's entry and the state blob of the live ones and hands them to
// JobStore.WriteSnapshot(through, sealed, state), which seals the
// entries once and keeps every record appended after through. Once the
// snapshot lands, the sealed jobs leave q.unsealed and drop their cached
// head, which no snapshot reads again. Lock order is q.mu, then the
// store's own lock; the snapshot is written under neither.

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

// entrySize bounds the length of the entry appendEntry makes.
func entrySize(head, result []byte) int {
	return len(head) + len(`,"result":`) + len(result)
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
// next ID and the jobs not sealed, in submission order. (Older builds
// wrote every job into it.)
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

// snapshotCapture is what a snapshot takes under q.mu: the jobs it
// seals and the live ones, each in submission order, and the sequence
// number through which it covers the log.
type snapshotCapture struct {
	through    uint64
	nextID     int
	sealed     []snapshotJob
	sealedJobs []*Job
	live       []persistedJob
}

// snapshotJob is the cached head and result of a terminal job.
type snapshotJob struct{ head, result []byte }

// captureLocked captures the jobs not sealed yet for a snapshot. A
// terminal job whose head is cached is sealed; every other job is live,
// including a terminal one that finish has not given its head yet.
func (q *Queue) captureLocked() *snapshotCapture {
	c := &snapshotCapture{through: q.lastSeq, nextID: q.nextID}
	for _, job := range q.unsealed {
		if job.head != nil {
			c.sealed = append(c.sealed, snapshotJob{job.head, job.result})
			c.sealedJobs = append(c.sealedJobs, job)
			continue
		}
		c.live = append(c.live, persistedOf(job))
	}
	return c
}

// writeSnapshot assembles a captured snapshot and writes it to st, off
// q.mu; once it has landed, the jobs it sealed leave q.unsealed. Then it
// marks the snapshot finished.
func (q *Queue) writeSnapshot(st store.JobStore, c *snapshotCapture, done chan struct{}) {
	sealed, state, err := c.encode()
	if err == nil {
		err = st.WriteSnapshot(c.through, sealed, state)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err != nil {
		q.reportStoreErrorLocked(err)
	} else {
		q.dropSealedLocked(c.sealedJobs)
	}
	q.snapDone = nil
	close(done)
}

// dropSealedLocked removes sealed, a subsequence of q.unsealed in the
// same order, from q.unsealed and releases their cached heads.
func (q *Queue) dropSealedLocked(sealed []*Job) {
	kept := q.unsealed[:0]
	for _, job := range q.unsealed {
		if len(sealed) > 0 && job == sealed[0] {
			sealed = sealed[1:]
			job.head = nil
			continue
		}
		kept = append(kept, job)
	}
	clear(q.unsealed[len(kept):])
	q.unsealed = kept
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

// encode assembles the snapshot: each sealed job's entry, spliced from
// its cached bytes into one shared buffer, and the state blob, a
// storeState in JSON that holds the live jobs. Only the live jobs are
// encoded, first, so that the blob is sized exactly.
func (c *snapshotCapture) encode() (sealed [][]byte, state []byte, err error) {
	size := 0
	for _, j := range c.sealed {
		size += entrySize(j.head, j.result)
	}
	buf := make([]byte, 0, size)
	sealed = make([][]byte, len(c.sealed))
	for i, j := range c.sealed {
		start := len(buf)
		buf = appendEntry(buf, j.head, j.result)
		sealed[i] = buf[start:len(buf):len(buf)]
	}

	live := make([]snapshotJob, len(c.live))
	size = 64
	for i := range c.live {
		head, err := c.live[i].encodeHead()
		if err != nil {
			return nil, nil, err
		}
		live[i] = snapshotJob{head, c.live[i].Result}
		size += entrySize(head, c.live[i].Result) + 1
	}
	state = make([]byte, 0, size)
	state = append(state, `{"next_id":`...)
	state = strconv.AppendInt(state, int64(c.nextID), 10)
	state = append(state, `,"jobs":[`...)
	for i, j := range live {
		if i > 0 {
			state = append(state, ',')
		}
		state = appendEntry(state, j.head, j.result)
	}
	return sealed, append(state, "]}"...), nil
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
	// SnapshotJobs counts jobs restored from the sealed entries and the
	// snapshot blob.
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

// RecoverQueue rebuilds a queue from a job store: the sealed jobs, then
// the snapshot's, then every log record, then re-enqueueing of each job
// that was pending or running at crash time (completed jobs keep their
// results and are never re-solved). Job IDs number the jobs in
// submission order, which restores the order of jobs that were sealed
// apart from the live ones. The returned queue persists through st from
// then on.
func RecoverQueue(capacity int, st store.JobStore, snapshotEvery int, onStoreError func(error)) (*Queue, *RecoveryStats, error) {
	q := NewQueue(capacity)
	q.snapshotEvery = snapshotEvery
	q.onStoreError = onStoreError
	stats := &RecoveryStats{}
	start := time.Now()

	// Collect records first: the snapshot blob arrives at the end of
	// Replay but must be applied after the sealed jobs and before the
	// records layered on top of it.
	sealed := map[string]bool{}
	var sealedJobs []*Job
	var recs []*store.Record
	snap, err := st.Replay(func(entry []byte) error {
		var pj persistedJob
		if err := json.Unmarshal(entry, &pj); err != nil {
			return fmt.Errorf("decoding a sealed job: %w", err)
		}
		if sealed[pj.ID] {
			return nil // sealed again after a snapshot that failed late
		}
		sealed[pj.ID] = true
		job := jobOf(&pj)
		job.Spec.Document = "" // as once the head was cached; no run reads it again
		sealedJobs = append(sealedJobs, job)
		return nil
	}, func(rec *store.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("service: store replay: %w", err)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	for _, job := range sealedJobs {
		q.addRecoveredLocked(job)
	}
	stats.SnapshotJobs = len(sealedJobs)
	if snap != nil {
		var state storeState
		if err := json.Unmarshal(snap, &state); err != nil {
			return nil, nil, fmt.Errorf("service: decoding store snapshot: %w", err)
		}
		q.nextID = max(q.nextID, state.NextID)
		for i := range state.Jobs {
			q.addRecoveredLocked(jobOf(&state.Jobs[i]))
		}
		stats.SnapshotJobs += len(state.Jobs)
	}
	for _, rec := range recs {
		q.applyRecordLocked(rec, stats)
	}
	stats.Records = len(recs)
	slices.SortStableFunc(q.order, func(a, b string) int { return cmp.Compare(jobNumber(a), jobNumber(b)) })

	// Re-enqueue everything non-terminal: those jobs were queued or
	// running when the previous process died. Terminal jobs not sealed get
	// their snapshot head, as finish would have given them.
	now := time.Now()
	var requeued []*Job
	for _, id := range q.order {
		job := q.jobs[id]
		if !sealed[id] {
			q.unsealed = append(q.unsealed, job)
		}
		switch {
		case job.State.Terminal():
			stats.Completed++
			if sealed[id] {
				continue
			}
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

// jobOf rebuilds a job from its persisted form.
func jobOf(pj *persistedJob) *Job {
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
	return job
}

// addRecoveredLocked registers a job restored from a sealed entry or the
// snapshot and keeps ID allocation ahead of it.
func (q *Queue) addRecoveredLocked(job *Job) {
	q.jobs[job.ID] = job //dartvet:allow walorder -- snapshot replay: the record set being made visible is already durable
	q.order = append(q.order, job.ID)
	q.nextID = max(q.nextID, jobNumber(job.ID))
}

// jobNumber returns the number in a job ID ("job-000042" is 42), or 0
// for an ID of another form. Submit numbers jobs in submission order.
func jobNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n < 0 {
		return 0
	}
	return n
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
		q.nextID = max(q.nextID, jobNumber(rec.JobID))
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
