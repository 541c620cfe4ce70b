package store

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Mem is the in-memory JobStore: the same append/seal/replay/snapshot
// contract as the WAL with no files behind it. It mirrors the service's
// pre-persistence behavior (state dies with the process) while letting
// differential tests drive both backends with identical record sequences
// and compare replays, and letting unit tests exercise recovery without a
// disk. All fields are guarded by mu.
type Mem struct {
	mu      sync.Mutex
	records []*Record
	nextSeq uint64
	sealed  [][]byte

	snapSeq  uint64
	snapBlob []byte

	appends       uint64
	appendBytes   uint64
	syncs         uint64
	snapshots     uint64
	replaySeconds float64
	replayRecords uint64
}

// NewMem creates an empty in-memory store.
func NewMem() *Mem { return &Mem{nextSeq: 1} }

// Append implements JobStore.
func (m *Mem) Append(rec *Record) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec.Seq = m.nextSeq
	m.nextSeq++
	cp := *rec
	if rec.Blob != nil {
		cp.Blob = append([]byte(nil), rec.Blob...)
	}
	m.records = append(m.records, &cp)
	m.appends++
	// Count the same bytes the WAL would write so stats are comparable.
	m.appendBytes += uint64(len(encodeFrame(nil, &cp)))
	return rec.Seq, nil
}

// Replay implements JobStore.
func (m *Mem) Replay(sealed func(entry []byte) error, fn func(*Record) error) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	m.replayRecords = 0
	for _, e := range m.sealed {
		if err := sealed(append([]byte(nil), e...)); err != nil {
			return nil, err
		}
	}
	for _, rec := range m.records {
		if rec.Seq <= m.snapSeq {
			continue
		}
		cp := *rec
		if err := fn(&cp); err != nil {
			return nil, err
		}
		m.replayRecords++
	}
	m.replaySeconds = time.Since(start).Seconds()
	if m.snapBlob == nil {
		return nil, nil
	}
	return append([]byte(nil), m.snapBlob...), nil
}

// WriteSnapshot implements JobStore: the sealed entries join those of
// earlier snapshots, and the snapshot absorbs every record through seq
// through, which are dropped; later records stay. The entries and the
// state are copied before the lock is taken, so appends do not wait for
// them.
func (m *Mem) WriteSnapshot(through uint64, sealed [][]byte, state []byte) error {
	blob := append([]byte(nil), state...)
	entries := make([][]byte, len(sealed))
	for i, e := range sealed {
		entries[i] = append([]byte(nil), e...)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case through >= m.nextSeq:
		return fmt.Errorf("store: snapshot through seq %d, past the last appended seq %d", through, m.nextSeq-1)
	case through < m.snapSeq:
		return fmt.Errorf("store: snapshot through seq %d, behind the current snapshot's %d", through, m.snapSeq)
	}
	m.sealed = append(m.sealed, entries...)
	m.snapSeq = through
	m.snapBlob = blob
	recs := m.records
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Seq > through })
	m.records = append(recs[:0], recs[i:]...)
	m.snapshots++
	return nil
}

// AppendsSinceSnapshot implements JobStore.
func (m *Mem) AppendsSinceSnapshot() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// Sync implements JobStore (a no-op beyond counting, for drain tests).
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs++
	return nil
}

// Stats implements JobStore.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var walBytes int64
	for _, rec := range m.records {
		walBytes += int64(len(encodeFrame(nil, rec)))
	}
	return Stats{
		Appends:       m.appends,
		AppendBytes:   m.appendBytes,
		Fsyncs:        m.syncs,
		Snapshots:     m.snapshots,
		WALBytes:      walBytes,
		SnapshotBytes: int64(len(m.snapBlob)),
		ReplaySeconds: m.replaySeconds,
		ReplayRecords: m.replayRecords,
	}
}

// Close implements JobStore.
func (m *Mem) Close() error { return nil }
