package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// snapshotThrough appends n records, captures the last sequence, appends
// `after` more records, snapshots through the captured sequence with
// state, and returns the records appended after the capture.
func snapshotThrough(t *testing.T, s JobStore, n, after int, state []byte) []*Record {
	t.Helper()
	appendN(t, s, n)
	through := uint64(n)
	var later []*Record
	for i := 0; i < after; i++ {
		rec := testRecord(n + i)
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		later = append(later, rec)
	}
	if err := s.WriteSnapshot(through, state); err != nil {
		t.Fatal(err)
	}
	return later
}

// checkReplay replays s and requires exactly state and want, in order.
func checkReplay(t *testing.T, s JobStore, state []byte, want []*Record) {
	t.Helper()
	snap, got := replayAll(t, s)
	if !bytes.Equal(snap, state) {
		t.Errorf("snapshot = %q, want %q", snap, state)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestWALSnapshotThroughReopen: after a snapshot through a captured
// sequence the log holds exactly the frames appended after the capture,
// and a reopened WAL replays them after the snapshot and continues the
// sequence past them. (TestBackendsReplayIdentically holds Mem to the
// same contract.)
func TestWALSnapshotThroughReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	state := []byte(`{"jobs":10}`)
	later := snapshotThrough(t, w, 10, 4, state)
	var size int
	for _, r := range later {
		size += len(encodeFrame(nil, r))
	}
	if got := w.Stats().WALBytes; got != int64(size) {
		t.Errorf("log holds %d bytes, want the %d of the later frames", got, size)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	checkReplay(t, w2, state, later)
	if got := w2.AppendsSinceSnapshot(); got != len(later) {
		t.Errorf("appends since snapshot = %d, want %d", got, len(later))
	}
	if seq, err := w2.Append(testRecord(99)); err != nil || seq != 15 {
		t.Fatalf("append after reopen: seq %d, err %v, want seq 15", seq, err)
	}
}

// TestSnapshotThroughRejected: a snapshot may not claim records not yet
// appended, nor go behind the current snapshot, on either backend; a
// rejected snapshot changes nothing.
func TestSnapshotThroughRejected(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for name, s := range map[string]JobStore{"mem": NewMem(), "wal": w} {
		t.Run(name, func(t *testing.T) {
			recs := appendN(t, s, 5)
			if err := s.WriteSnapshot(6, []byte("ahead")); err == nil {
				t.Error("snapshot through an unappended seq succeeded")
			}
			if err := s.WriteSnapshot(3, []byte("S3")); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteSnapshot(2, []byte("behind")); err == nil {
				t.Error("snapshot behind the current snapshot succeeded")
			}
			checkReplay(t, s, []byte("S3"), recs[3:])
		})
	}
}

// TestWALSnapshotCrashPoints copies the store directory at each of the
// snapshot's directory syncs: after snapshot.bin is renamed but before
// the log is cut, and after the cut log is renamed. A restart from
// either copy must replay the snapshot and exactly the later records,
// and continue the sequence past them.
func TestWALSnapshotCrashPoints(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var crashes []string
	realSyncDir := syncDir
	syncDir = func(d string) error {
		crash := t.TempDir()
		copyDir(t, d, crash)
		crashes = append(crashes, crash)
		return realSyncDir(d)
	}
	defer func() { syncDir = realSyncDir }()
	state := []byte(`{"jobs":7}`)
	later := snapshotThrough(t, w, 7, 3, state)
	syncDir = realSyncDir
	if len(crashes) != 2 {
		t.Fatalf("snapshot synced the directory %d times, want 2 (snapshot rename, log cut)", len(crashes))
	}

	for i, name := range []string{"after rename, before cut", "after cut"} {
		t.Run(name, func(t *testing.T) {
			w2, err := OpenWAL(crashes[i], WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			checkReplay(t, w2, state, later)
			if seq, err := w2.Append(testRecord(99)); err != nil || seq != 11 {
				t.Fatalf("append after restart: seq %d, err %v, want seq 11", seq, err)
			}
		})
	}
}

// TestWALCutDirSyncFailure: when the directory sync after the log cut's
// rename fails, WriteSnapshot reports it, and the next append retries the
// sync before writing, failing while the directory cannot be synced.
func TestWALCutDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 4)
	later := []*Record{testRecord(4)}
	if _, err := w.Append(later[0]); err != nil {
		t.Fatal(err)
	}

	realSyncDir := syncDir
	calls := 0
	syncDir = func(d string) error {
		calls++
		if calls >= 2 {
			return errors.New("injected dir-sync failure")
		}
		return realSyncDir(d)
	}
	defer func() { syncDir = realSyncDir }()
	if err := w.WriteSnapshot(4, []byte("S")); err == nil {
		t.Fatal("WriteSnapshot succeeded despite the cut's dir-sync failure")
	}
	if _, err := w.Append(testRecord(5)); err == nil {
		t.Fatal("append succeeded while the cut log's name is not durable")
	}
	syncDir = realSyncDir
	rec := testRecord(5)
	if _, err := w.Append(rec); err != nil {
		t.Fatalf("append after the directory syncs again: %v", err)
	}
	checkReplay(t, w, []byte("S"), append(later, rec))
}

// TestWALAppendDuringSnapshotIO: appends do not wait for a snapshot's
// file I/O. The snapshot is held inside its directory sync while three
// records are appended; they land in the log after the snapshot.
func TestWALAppendDuringSnapshotIO(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 6)

	entered, release := make(chan struct{}), make(chan struct{})
	realSyncDir := syncDir
	first := true
	syncDir = func(d string) error {
		if first {
			first = false
			close(entered)
			<-release
		}
		return realSyncDir(d)
	}
	defer func() { syncDir = realSyncDir }()
	done := make(chan error, 1)
	go func() { done <- w.WriteSnapshot(6, []byte("S")) }()
	<-entered
	var later []*Record
	for i := 6; i < 9; i++ {
		rec := testRecord(i)
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		later = append(later, rec)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkReplay(t, w, []byte("S"), later)
}

// TestWALSnapshotAfterClose: a snapshot that starts after Close fails and
// leaves the directory as Close left it.
func TestWALSnapshotAfterClose(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(3, []byte("S")); err == nil {
		t.Fatal("WriteSnapshot on a closed WAL succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != walName {
		t.Errorf("directory after a rejected snapshot holds %v, want only %s", entries, walName)
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dst, e.Name()), data)
	}
}
