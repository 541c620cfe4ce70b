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
	if err := s.WriteSnapshot(through, nil, state); err != nil {
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
// sequence the rotated log file keeps its frames, those appended after
// the capture among them, and a reopened WAL replays just the later ones
// after the snapshot and continues the sequence past them. The next
// snapshot deletes the file. (TestBackendsReplayIdentically holds Mem to
// the same contract.)
func TestWALSnapshotThroughReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	state := []byte(`{"jobs":10}`)
	later := snapshotThrough(t, w, 10, 4, state)
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
	if err := w2.WriteSnapshot(15, nil, state); err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, dir), []string{logName(3), sealedName, snapName}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory after the second snapshot holds %v, want %v", got, want)
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
			if err := s.WriteSnapshot(6, entries("E"), []byte("ahead")); err == nil {
				t.Error("snapshot through an unappended seq succeeded")
			}
			if err := s.WriteSnapshot(3, nil, []byte("S3")); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteSnapshot(2, entries("E"), []byte("behind")); err == nil {
				t.Error("snapshot behind the current snapshot succeeded")
			}
			if sealed, _, _ := replaySealed(t, s); len(sealed) != 0 {
				t.Errorf("rejected snapshots sealed %q", sealed)
			}
			checkReplay(t, s, []byte("S3"), recs[3:])
		})
	}
}

// TestWALSnapshotCrashPoints restarts from copies of the store directory
// taken at each crash point of a second snapshot, which seals an entry
// and rotates a log whose frames outlast its through:
//
//   - after the new log file's directory sync, before the swap;
//   - after the sealed entry is written, before the snapshot's rename
//     (the directory at the rename's sync with the old snapshot.bin put
//     back and the new one as snapshot.tmp): open must cut the entry;
//   - after the rename, before the absorbed log file is deleted;
//   - after the deletion.
//
// Each restart must replay the sealed entries and the snapshot it
// counts, exactly the records after that snapshot, and continue the
// sequence past them.
func TestWALSnapshotCrashPoints(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 4)
	if err := w.WriteSnapshot(4, entries("E1"), []byte("S1")); err != nil {
		t.Fatal(err)
	}
	var all []*Record
	for i := 4; i < 12; i++ {
		rec := testRecord(i)
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		all = append(all, rec)
	}

	var crashes []string
	realSyncDir := syncDir
	syncDir = func(d string) error {
		crash := t.TempDir()
		copyDir(t, d, crash)
		crashes = append(crashes, crash)
		return realSyncDir(d)
	}
	defer func() { syncDir = realSyncDir }()
	if err := w.WriteSnapshot(9, entries("E2"), []byte("S2")); err != nil {
		t.Fatal(err)
	}
	syncDir = realSyncDir
	if len(crashes) != 2 {
		t.Fatalf("snapshot synced the directory %d times, want 2 (new log, snapshot rename)", len(crashes))
	}
	beforeRename := t.TempDir()
	copyDir(t, crashes[1], beforeRename)
	copyFile(t, filepath.Join(crashes[1], snapName), filepath.Join(beforeRename, snapTmpName))
	copyFile(t, filepath.Join(crashes[0], snapName), filepath.Join(beforeRename, snapName))
	afterDelete := t.TempDir()
	copyDir(t, dir, afterDelete)

	old, landed := []string{"E1"}, []string{"E1", "E2"}
	for _, c := range []struct {
		name, dir string
		sealed    []string
		state     string
		later     []*Record
	}{
		{"after new log, before swap", crashes[0], old, "S1", all},
		{"after seal, before rename", beforeRename, old, "S1", all},
		{"after rename, before delete", crashes[1], landed, "S2", all[5:]},
		{"after delete", afterDelete, landed, "S2", all[5:]},
	} {
		t.Run(c.name, func(t *testing.T) {
			w2, err := OpenWAL(c.dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			sealed, _, _ := replaySealed(t, w2)
			if !reflect.DeepEqual(sealed, entries(c.sealed...)) {
				t.Errorf("sealed entries = %q, want %q", sealed, c.sealed)
			}
			checkReplay(t, w2, []byte(c.state), c.later)
			if seq, err := w2.Append(testRecord(99)); err != nil || seq != 13 {
				t.Fatalf("append after restart: seq %d, err %v, want seq 13", seq, err)
			}
		})
	}
}

// TestWALInstallDirSyncFailure: when the directory sync after the
// snapshot's rename fails, WriteSnapshot reports it and deletes no log
// file, as a crash could still bring the old snapshot back. The renamed
// snapshot is the one on disk, so the WAL keeps to it: replay goes on,
// and the sealed bytes it counts are never written again. The caller
// passes the entry again with its next snapshot, which then lands; the
// entry replays twice.
func TestWALInstallDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 4)

	realSyncDir := syncDir
	calls := 0
	syncDir = func(d string) error {
		if calls++; calls == 2 {
			return errors.New("injected dir-sync failure")
		}
		return realSyncDir(d)
	}
	defer func() { syncDir = realSyncDir }()
	if err := w.WriteSnapshot(4, entries("E"), []byte("S")); err == nil {
		t.Fatal("WriteSnapshot succeeded despite the rename's dir-sync failure")
	}
	if got, want := dirNames(t, dir), []string{logName(1), logName(2), sealedName, snapName}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory after the failed sync holds %v, want %v", got, want)
	}
	rec := testRecord(4)
	if _, err := w.Append(rec); err != nil {
		t.Fatalf("append after the failed sync: %v", err)
	}
	sealed, _, _ := replaySealed(t, w)
	if !reflect.DeepEqual(sealed, entries("E")) {
		t.Errorf("sealed entries = %q, want [E]", sealed)
	}
	checkReplay(t, w, []byte("S"), []*Record{rec})

	if err := w.WriteSnapshot(5, entries("E", "F"), []byte("S5")); err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, dir), []string{logName(3), sealedName, snapName}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory after the next snapshot holds %v, want %v", got, want)
	}
	if sealed, _, _ := replaySealed(t, w); !reflect.DeepEqual(sealed, entries("E", "E", "F")) {
		t.Errorf("sealed entries = %q, want [E E F]", sealed)
	}
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
	go func() { done <- w.WriteSnapshot(6, nil, []byte("S")) }()
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
	if err := w.WriteSnapshot(3, nil, []byte("S")); err == nil {
		t.Fatal("WriteSnapshot on a closed WAL succeeded")
	}
	if got, want := dirNames(t, dir), []string{logName(1), sealedName}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory after a rejected snapshot holds %v, want %v", got, want)
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	for _, name := range dirNames(t, src) {
		copyFile(t, filepath.Join(src, name), filepath.Join(dst, name))
	}
}

// copyFile copies the file src to dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dst, data)
}
