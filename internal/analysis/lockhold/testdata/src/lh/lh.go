// Package lh exercises the lockhold pass: no mutex held across a
// blocking call.
package lh

import "sync"

type decider struct{}

func (d *decider) Decide() (string, error) { return "", nil }

type ledger struct {
	mu   sync.Mutex
	aux  sync.Mutex
	cond *sync.Cond
	ch   chan int
	open int
}

func work() {}

// JobStore mirrors store.JobStore; the pass keys on the type name.
type JobStore interface {
	WriteSnapshot(through uint64, state []byte) error
}

type queue struct {
	mu    sync.Mutex
	store JobStore
	seq   uint64
}

// --- findings ---------------------------------------------------------

func (l *ledger) recvUnderLock() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return <-l.ch // want "blocking channel receive while holding l.mu"
}

func (l *ledger) recvUnderDeferredUnlock() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	work()
	v := <-l.ch // want "blocking channel receive while holding l.mu"
	return v
}

func (l *ledger) mayHoldOnOneBranch(fast bool) int {
	l.mu.Lock()
	if fast {
		l.mu.Unlock()
	}
	return <-l.ch // want "blocking channel receive while holding l.mu"
}

func (l *ledger) decideUnderLock(d *decider) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = d.Decide() // want "blocking decider call while holding l.mu"
}

func (l *ledger) waitWithSecondLock() {
	l.mu.Lock()
	l.aux.Lock()
	l.cond.Wait() // want "cond.Wait with an unrelated mutex held"
	l.aux.Unlock()
	l.mu.Unlock()
}

func (l *ledger) foreignCondWait(other *ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	other.cond.Wait() // want "cond.Wait with an unrelated mutex held"
}

func (l *ledger) rangeOverChannel() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for v := range l.ch { // want "blocking range over channel while holding l.mu"
		_ = v
	}
}

func (l *ledger) lockInLoopRecvAfter(n int) {
	for i := 0; i < n; i++ {
		l.mu.Lock()
		l.open++
		l.mu.Unlock()
	}
	l.mu.Lock()
	<-l.ch // want "blocking channel receive while holding l.mu"
	l.mu.Unlock()
}

func (q *queue) snapshotUnderLock(state []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.store.WriteSnapshot(q.seq, state) // want "JobStore.WriteSnapshot while holding q.mu"
}

// maybeSnapshotLocked runs with q.mu held by its callers.
func (q *queue) maybeSnapshotLocked(state []byte) error {
	return q.store.WriteSnapshot(q.seq, state) // want "JobStore.WriteSnapshot while holding q.mu"
}

func (l *ledger) drainLocked() int {
	return <-l.ch // want "blocking channel receive while holding l.mu"
}

// --- clean ------------------------------------------------------------

func (q *queue) snapshotAfterCapture(state []byte) error {
	q.mu.Lock()
	st, through := q.store, q.seq
	q.mu.Unlock()
	return st.WriteSnapshot(through, state)
}

func (l *ledger) recvAfterUnlock() int {
	l.mu.Lock()
	l.open++
	l.mu.Unlock()
	return <-l.ch
}

func (l *ledger) unlockedOnEveryBranch(fast bool) int {
	l.mu.Lock()
	if fast {
		l.open++
		l.mu.Unlock()
	} else {
		l.mu.Unlock()
	}
	return <-l.ch
}

func (l *ledger) ownCondWait() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.open > 0 {
		l.cond.Wait() // cond owns the single held mutex: legal
	}
}

func (l *ledger) decideThenLock(d *decider) {
	v, _ := d.Decide()
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = v
	l.open++
}

func (l *ledger) nonBlockingSelect() {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case v := <-l.ch:
		l.open = v
	default:
	}
}

func (l *ledger) sendUnderLock(v int) {
	// Bounded sends under a lock are an accepted idiom: not flagged.
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ch <- v
}

func (l *ledger) allowedWait() {
	l.mu.Lock()
	defer l.mu.Unlock()
	//dartvet:allow lockhold -- fixture: startup barrier, nothing else contends yet
	<-l.ch
}
