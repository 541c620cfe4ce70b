package store

import (
	"reflect"
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
