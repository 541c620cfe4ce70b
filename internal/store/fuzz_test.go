package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame and body decoders:
// neither may panic, and every record either one decodes must survive an
// encodeBody/decodeBody round trip unchanged. The body decoder is fuzzed
// directly as well because random frames almost never pass the CRC.
func FuzzDecodeFrame(f *testing.F) {
	for _, r := range []*Record{
		{Type: RecSubmit, Seq: 1, UnixNano: 1_700_000_000_000_000_000, JobID: "job-000001", State: "queued", Blob: []byte(`{"document":"<table></table>"}`)},
		{Type: RecTransition, Seq: 2, UnixNano: -5, JobID: "job-000001", State: "running", Attempts: 2, TraceID: "00000000deadbeef", Error: "boom"},
		{Type: RecResult, Seq: 3, JobID: "job-000001", Blob: []byte(`{"repair":{"card":1}}`)},
		{Type: RecSpans, Seq: 4, JobID: "job-000001", TraceID: "00000000deadbeef", Blob: []byte(`{"spans":9}`)},
		{Type: RecRepair, Seq: 5, JobID: "job-000001", State: "accepted", Blob: []byte(`{"kind":"accepted"}`)},
	} {
		frame := encodeFrame(nil, r)
		if got, n, err := decodeFrame(frame); err != nil || n != len(frame) || !reflect.DeepEqual(got, r) {
			f.Fatalf("seed %v does not decode back (n=%d, err=%v): %+v", r.Type, n, err, got)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, n, err := decodeFrame(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(data))
			}
			checkBodyRoundTrip(t, rec)
		}
		if rec, err := decodeBody(data); err == nil {
			checkBodyRoundTrip(t, rec)
		}
	})
}

// checkBodyRoundTrip re-encodes a decoded record and decodes it again.
func checkBodyRoundTrip(t *testing.T, rec *Record) {
	t.Helper()
	again, err := decodeBody(encodeBody(nil, rec))
	if err != nil {
		t.Fatalf("re-encoded record %+v does not decode: %v", rec, err)
	}
	if !reflect.DeepEqual(again, rec) {
		t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", again, rec)
	}
}

// FuzzWALReplay writes arbitrary bytes as the legacy log jobs.wal, and
// optionally as snapshot.bin, then opens the store and replays it. Open
// and Replay must not panic or allocate from a hostile length prefix;
// with the snapshot left out the replayed records must re-encode to
// exactly the log prefix open kept; with it, replay must deliver the
// snapshot's state and just the records it does not absorb, or fail to
// open when the snapshot counts sealed bytes the directory does not hold;
// and the next Append must continue the sequence past every record and
// the snapshot.
func FuzzWALReplay(f *testing.F) {
	realLog, postLog := logOf(0, 6), logOf(6, 8)
	state := []byte(`{"jobs":6}`)
	realSnap := append(snapshotHeader(6, 0, state), state...)
	v1Snap := binary.LittleEndian.AppendUint64(nil, 6)
	v1Snap = append(binary.LittleEndian.AppendUint32(v1Snap, crc32.ChecksumIEEE(state)), state...)
	// A job as older builds logged it, with a spans frame after the
	// running transition.
	var legacy []byte
	for i, r := range []*Record{
		{Type: RecSubmit, JobID: "job-000001", State: "queued", Blob: []byte(`{"document":"x"}`)},
		{Type: RecTransition, JobID: "job-000001", State: "running", Attempts: 1, TraceID: "00000000deadbeef"},
		{Type: RecSpans, JobID: "job-000001", TraceID: "00000000deadbeef", Blob: []byte(`{"spans":9}`)},
		{Type: RecResult, JobID: "job-000001", Blob: []byte(`{}`)},
	} {
		r.Seq = uint64(i + 1)
		legacy = encodeFrame(legacy, r)
	}
	// A frame whose seq is an overlong uvarint under a valid CRC: it does
	// not re-encode to its own bytes, so the decoder must refuse it.
	overlong := []byte{byte(RecSubmit), 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0}
	overlong = binary.LittleEndian.AppendUint32(append([]byte{byte(len(overlong))}, overlong...), crc32.ChecksumIEEE(overlong))

	f.Add(realLog, []byte(nil), false)
	f.Add(postLog, realSnap, true)
	f.Add(postLog, v1Snap, true)
	f.Add(realLog[:len(realLog)-3], realSnap, true)
	f.Add(postLog, append(snapshotHeader(6, 9, state), state...), true)
	f.Add(legacy, []byte(nil), false)
	f.Add(append(append([]byte(nil), legacy...), overlong...), []byte(nil), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, realSnap[:snapHeader-1], true)
	f.Fuzz(func(t *testing.T, log, snap []byte, withSnap bool) {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, legacyLogName), log)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		all, kept, _ := openReplay(t, dir)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(log)); grew > limit {
			t.Fatalf("open and replay of a %d-byte log allocated %d bytes, over %d", len(log), grew, limit)
		}
		if !bytes.HasPrefix(log, kept) {
			t.Fatalf("open kept %d bytes that are not a prefix of the log", len(kept))
		}
		var enc []byte
		for _, r := range all {
			enc = encodeFrame(enc, r)
		}
		if !bytes.Equal(enc, kept) {
			t.Fatalf("%d replayed records re-encode to %d bytes, want the %d-byte kept prefix", len(all), len(enc), len(kept))
		}
		if !withSnap {
			return
		}

		// Same log, now under the snapshot.
		dir = t.TempDir()
		writeFile(t, filepath.Join(dir, legacyLogName), log)
		writeFile(t, filepath.Join(dir, snapName), snap)
		s, valid, _ := readSnapshot(dir)
		if valid && s.sealed > 0 {
			if w, err := OpenWAL(dir, WALOptions{}); err == nil {
				closeFiles(w)
				t.Fatalf("open succeeded under a snapshot that counts %d sealed bytes of none", s.sealed)
			}
			return
		}
		got, _, gotSnap := openReplay(t, dir)
		want := all
		if valid {
			want = nil
			for _, r := range all {
				if r.Seq > s.through {
					want = append(want, r)
				}
			}
		}
		blob := s.state
		if len(blob) == 0 {
			blob = nil
		}
		if !reflect.DeepEqual(got, want) || !bytes.Equal(gotSnap, blob) {
			t.Fatalf("replay under the snapshot (valid=%v seq=%d) = %d records + %q, want %d records + %q",
				valid, s.through, len(got), gotSnap, len(want), blob)
		}
	})
}

// logOf returns the frames of testRecord(from) up to testRecord(to-1),
// with sequence numbers from+1 to to.
func logOf(from, to int) []byte {
	var log []byte
	for i := from; i < to; i++ {
		r := testRecord(i)
		r.Seq = uint64(i + 1)
		log = encodeFrame(log, r)
	}
	return log
}

// closeFiles closes a WAL's files without Close, whose fsync would
// dominate each fuzz run.
func closeFiles(w *WAL) {
	w.wal.Close()
	w.sealed.Close()
}

// openReplay opens the WAL in dir, replays it, checks that the next
// Append continues the sequence, and returns the replayed records, the
// legacy log bytes open kept, and the snapshot state.
func openReplay(t *testing.T, dir string) (recs []*Record, kept, snap []byte) {
	t.Helper()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer closeFiles(w)
	snap, err = w.Replay(noSealed, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if kept, err = os.ReadFile(filepath.Join(dir, legacyLogName)); err != nil {
		t.Fatal(err)
	}
	var last uint64
	if s, ok, _ := readSnapshot(dir); ok {
		last = s.through
	}
	for off := 0; off < len(kept); {
		r, n, err := decodeFrame(kept[off:])
		if err != nil {
			t.Fatalf("kept log has a bad frame at %d: %v", off, err)
		}
		last = max(last, r.Seq)
		off += n
	}
	checkNextSeq(t, w, last)
	return recs, kept, snap
}

// checkNextSeq appends one record and checks that it continues the
// sequence past last, or fails when last is the largest sequence.
func checkNextSeq(t *testing.T, w *WAL, last uint64) {
	t.Helper()
	seq, err := w.Append(testRecord(0))
	switch {
	case last == math.MaxUint64:
		if err == nil {
			t.Fatalf("append after seq %d succeeded with seq %d, want an error", last, seq)
		}
	case err != nil || seq != last+1:
		t.Fatalf("append after replay: seq %d, err %v, want seq %d", seq, err, last+1)
	}
}

// FuzzWALDirReplay builds whole store directories: arbitrary bytes as
// sealed.bin, a snapshot with a valid CRC that counts commit of those
// bytes, and three log files — the legacy jobs.wal and two numbered
// ones, with a gap in the numbering. Open must fail exactly when the
// snapshot counts more sealed bytes than the file holds, and must
// otherwise cut sealed.bin to the committed length. Replay must deliver
// the entries of the committed prefix, or fail when it does not tile
// into valid frames; then every record past the snapshot, in file order,
// up to the first invalid frame, which ends the whole log: open cuts the
// file that holds it and empties every later one. The next Append must
// continue the sequence. With again set, a snapshot through the last
// sequence must leave a single log file and replay after a reopen with
// one more sealed entry and no records.
func FuzzWALDirReplay(f *testing.F) {
	var sealed []byte
	for _, e := range []string{`{"id":"job-000001"}`, `{"id":"job-000002"}`, `{"id":"job-000003"}`} {
		sealed = appendFrame(sealed, []byte(e))
	}
	state := []byte(`{"next_id":9,"jobs":[]}`)
	f.Add(sealed, uint16(len(sealed)), uint64(5), state, logOf(0, 4), logOf(4, 7), logOf(7, 9), false)
	f.Add(sealed, uint16(len(sealed)), uint64(5), state, logOf(0, 4), logOf(4, 7), logOf(7, 9), true)
	f.Add(sealed, uint16(len(sealed)-5), uint64(7), state, []byte(nil), logOf(4, 7), logOf(7, 9), false)
	f.Add(sealed, uint16(len(sealed)+1), uint64(0), []byte(nil), logOf(0, 4), []byte(nil), []byte(nil), false)
	f.Add(sealed[:20], uint16(20), uint64(9), state, logOf(0, 4)[:30], logOf(4, 7), logOf(7, 9), false)
	f.Fuzz(func(t *testing.T, sealed []byte, commit uint16, through uint64, state, log0, log1, log3 []byte, again bool) {
		dir := t.TempDir()
		names := []string{legacyLogName, logName(1), logName(3)}
		logs := [][]byte{log0, log1, log3}
		for i, name := range names {
			writeFile(t, filepath.Join(dir, name), logs[i])
		}
		writeFile(t, filepath.Join(dir, sealedName), sealed)
		writeFile(t, filepath.Join(dir, snapName), append(snapshotHeader(through, int64(commit), state), state...))

		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := OpenWAL(dir, WALOptions{})
		if int(commit) > len(sealed) {
			if err == nil {
				closeFiles(w)
				t.Fatalf("open succeeded under a snapshot that counts %d of %d sealed bytes", commit, len(sealed))
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer closeFiles(w)
		var gotSealed [][]byte
		var got []*Record
		gotState, replayErr := w.Replay(func(e []byte) error {
			gotSealed = append(gotSealed, e)
			return nil
		}, func(r *Record) error {
			got = append(got, r)
			return nil
		})
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		size := len(sealed) + len(state) + len(log0) + len(log1) + len(log3)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*size); grew > limit {
			t.Fatalf("open and replay of %d bytes allocated %d bytes, over %d", size, grew, limit)
		}

		var wantSealed [][]byte
		tiles := true
		for off := 0; off < int(commit); {
			body, n, err := frameBody(sealed[off:commit])
			if err != nil {
				tiles = false
				break
			}
			wantSealed = append(wantSealed, body)
			off += n
		}
		var want []*Record
		last, ended := through, false
		for i, lg := range logs {
			off := 0
			for !ended && off < len(lg) {
				r, n, err := decodeFrame(lg[off:])
				if err != nil {
					ended = true
					break
				}
				if r.Seq > through {
					want = append(want, r)
				}
				last = max(last, r.Seq)
				off += n
			}
			if onDisk, err := os.ReadFile(filepath.Join(dir, names[i])); err != nil || !bytes.Equal(onDisk, lg[:off]) {
				t.Fatalf("%s holds %d bytes after open (%v), want its %d-byte valid prefix", names[i], len(onDisk), err, off)
			}
		}
		if onDisk, err := os.ReadFile(filepath.Join(dir, sealedName)); err != nil || !bytes.Equal(onDisk, sealed[:commit]) {
			t.Fatalf("%s holds %d bytes after open (%v), want the %d committed", sealedName, len(onDisk), err, commit)
		}
		if !tiles {
			if replayErr == nil {
				t.Fatal("replay over a corrupt sealed prefix succeeded")
			}
			return
		}
		if replayErr != nil {
			t.Fatalf("replay: %v", replayErr)
		}
		if len(state) == 0 {
			state = nil
		}
		if len(gotSealed) != len(wantSealed) || !reflect.DeepEqual(got, want) || !bytes.Equal(gotState, state) {
			t.Fatalf("replay = %d sealed, %d records, state %q; want %d, %d, %q", len(gotSealed), len(got), gotState, len(wantSealed), len(want), state)
		}
		for i := range wantSealed {
			if !bytes.Equal(gotSealed[i], wantSealed[i]) {
				t.Fatalf("sealed entry %d = %q, want %q", i, gotSealed[i], wantSealed[i])
			}
		}
		if n := w.AppendsSinceSnapshot(); n != len(want) {
			t.Fatalf("appends since snapshot = %d, want %d", n, len(want))
		}
		checkNextSeq(t, w, last)
		if !again {
			return
		}

		through = w.Stats().Appends + last
		if last == math.MaxUint64 {
			through = last
		}
		if err := w.WriteSnapshot(through, [][]byte{[]byte("X")}, []byte("S")); err != nil {
			t.Fatalf("snapshot through %d: %v", through, err)
		}
		var logNames []string
		for _, name := range dirNames(t, dir) {
			if _, ok := parseLogName(name); ok {
				logNames = append(logNames, name)
			}
		}
		if len(logNames) != 1 {
			t.Fatalf("log files after a snapshot through the last seq: %v, want one", logNames)
		}
		closeFiles(w)
		w2, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer closeFiles(w2)
		gotSealed2, gotState2, got2 := replaySealed(t, w2)
		if len(gotSealed2) != len(wantSealed)+1 || string(gotSealed2[len(wantSealed)]) != "X" || string(gotState2) != "S" || len(got2) != 0 {
			t.Fatalf("replay after the snapshot = %d sealed, state %q, %d records; want %d, \"S\", 0", len(gotSealed2), gotState2, len(got2), len(wantSealed)+1)
		}
	})
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
