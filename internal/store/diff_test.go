package store

import (
	"bytes"
	"reflect"
	"testing"
)

// drive applies the same scripted operation sequence to any backend:
// twelve appends, a capture of the last sequence number, three appends
// after the capture, a snapshot through the captured sequence that seals
// two entries, and five appends after the snapshot. It returns the
// captured sequence.
func drive(t *testing.T, s JobStore) (through uint64) {
	t.Helper()
	for i := 0; i < 20; i++ {
		if i == 15 {
			if err := s.WriteSnapshot(through, driveSealed, []byte(`{"state":"mid"}`)); err != nil {
				t.Fatal(err)
			}
		}
		seq, err := s.Append(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 11 {
			through = seq
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return through
}

// driveSealed are the entries drive's snapshot seals.
var driveSealed = entries(`{"id":"job-000001"}`, `{"id":"job-000002","result":{}}`)

// TestBackendsReplayIdentically is the store-level differential test: the
// WAL and the in-memory backend, fed the same operation sequence, must
// replay the same sealed entries, byte-identical snapshots and
// structurally identical records with the same sequence numbers.
func TestBackendsReplayIdentically(t *testing.T) {
	wal, err := OpenWAL(t.TempDir(), WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	mem := NewMem()
	through := drive(t, wal)
	drive(t, mem)

	walSealed, walSnap, walRecs := replaySealed(t, wal)
	memSealed, memSnap, memRecs := replaySealed(t, mem)
	if !reflect.DeepEqual(walSealed, driveSealed) || !reflect.DeepEqual(memSealed, driveSealed) {
		t.Errorf("sealed entries: wal=%q mem=%q, want %q", walSealed, memSealed, driveSealed)
	}
	if !bytes.Equal(walSnap, memSnap) {
		t.Errorf("snapshots differ: wal=%q mem=%q", walSnap, memSnap)
	}
	if len(walRecs) != len(memRecs) {
		t.Fatalf("record counts differ: wal=%d mem=%d", len(walRecs), len(memRecs))
	}
	for i := range walRecs {
		if !reflect.DeepEqual(walRecs[i], memRecs[i]) {
			t.Errorf("record %d differs:\n wal %+v\n mem %+v", i, walRecs[i], memRecs[i])
		}
	}
	// Exactly the records after the captured sequence replay, in order:
	// the three appended between capture and snapshot, then the rest.
	if len(walRecs) != 8 {
		t.Fatalf("replayed %d records after the snapshot, want 8", len(walRecs))
	}
	for i, r := range walRecs {
		want := testRecord(int(through) + i)
		want.Seq = through + 1 + uint64(i)
		if !reflect.DeepEqual(r, want) {
			t.Errorf("record %d after the snapshot:\n got  %+v\n want %+v", i, r, want)
		}
	}
	ws, ms := wal.Stats(), mem.Stats()
	if ws.Appends != ms.Appends || ws.AppendBytes != ms.AppendBytes ||
		ws.Snapshots != ms.Snapshots || ws.ReplayRecords != ms.ReplayRecords {
		t.Errorf("stats diverge:\n wal %+v\n mem %+v", ws, ms)
	}
	if walSince, memSince := wal.AppendsSinceSnapshot(), mem.AppendsSinceSnapshot(); walSince != memSince {
		t.Errorf("appends since snapshot: wal=%d mem=%d", walSince, memSince)
	}
}
