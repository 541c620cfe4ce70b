// Package wo exercises the walorder pass: worker-visible writes must be
// dominated by the durable store append.
package wo

import "sync"

// Record mirrors store.Record.
type Record struct{ Kind string }

// JobStore mirrors store.JobStore; the pass keys on the type name.
type JobStore interface {
	Append(*Record) (uint64, error)
	WriteSnapshot(uint64, []byte) error
}

type Job struct{ ID string }

// Queue carries a JobStore field, making it a walorder subject.
type Queue struct {
	mu    sync.Mutex
	store JobStore
	jobs  map[string]*Job
	ch    chan *Job
	cond  *sync.Cond
	order []string
}

func (q *Queue) appendSubmitLocked(j *Job) error {
	_, err := q.store.Append(&Record{Kind: "submit"})
	return err
}

// --- clean ------------------------------------------------------------

func (q *Queue) Submit(j *Job) error {
	if err := q.appendSubmitLocked(j); err != nil {
		return err
	}
	q.ch <- j
	q.jobs[j.ID] = j
	q.cond.Signal()
	return nil
}

func (q *Queue) SubmitDirect(j *Job) error {
	if _, err := q.store.Append(&Record{Kind: "submit"}); err != nil {
		return err
	}
	q.jobs[j.ID] = j
	return nil
}

func (q *Queue) NoVisibleWrite(j *Job) {
	// Slice appends are not worker-visible in the queue's protocol.
	q.order = append(q.order, j.ID)
}

func (q *Queue) AllowedReplay(j *Job) {
	//dartvet:allow walorder -- fixture: replayed records are already durable
	q.ch <- j
}

// --- findings ---------------------------------------------------------

func (q *Queue) SendBeforeAppend(j *Job) {
	q.ch <- j // want "worker-visible write \(send on q.ch\) may happen before the job is durably appended"
	_ = q.appendSubmitLocked(j)
}

func (q *Queue) AppendOnOneBranchOnly(j *Job, fast bool) {
	if !fast {
		_ = q.appendSubmitLocked(j)
	}
	q.ch <- j // want "worker-visible write \(send on q.ch\) may happen before the job is durably appended"
}

func (q *Queue) SignalWithoutAppend(j *Job) {
	q.jobs[j.ID] = j // want "worker-visible write \(insert into q.jobs\) may happen before the job is durably appended"
	q.cond.Signal()  // want "worker-visible write \(cond Signal\) may happen before the job is durably appended"
}

func (q *Queue) SendThenAppendInLoop(js []*Job) {
	for _, j := range js {
		q.ch <- j // want "worker-visible write \(send on q.ch\) may happen before the job is durably appended"
		_ = q.appendSubmitLocked(j)
	}
}

// RecoverStandalone mirrors RecoverQueue: a plain function whose local
// carries the store — still checked, keyed by the local.
func RecoverStandalone(st JobStore, js []*Job) *Queue {
	q := &Queue{jobs: map[string]*Job{}, ch: make(chan *Job, 8)}
	for _, j := range js {
		q.jobs[j.ID] = j // want "worker-visible write \(insert into q.jobs\) may happen before the job is durably appended"
	}
	q.store = st
	return q
}
