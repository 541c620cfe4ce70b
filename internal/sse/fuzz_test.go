package sse

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzSSEReader checks the frame reader on arbitrary streams — Next must
// not panic and must reach an error after at most one event per input
// byte — and the writer/reader pair: a frame written by WriteEvent reads
// back as the same event when the id and name hold no CR or LF and the
// data holds no CR (the line scanner strips a CR before each LF).
func FuzzSSEReader(f *testing.F) {
	f.Add([]byte("id: 7\nevent: solver\ndata: {\"gap\":0.5}\n\n: hb\n\n"), "7", "solver", []byte(`{"gap":0.5}`))
	f.Add([]byte(": leading comment\n\nid:12\nevent:job\ndata:no-space-value\n\nevent: dataless\n\nretry: 1000\ndata: x\n\n"), "", "", []byte("line1\nline2"))
	f.Add([]byte("data\n\ndata:\r\n\r\ndata: tail-without-blank-line"), " spaced", "a:b", []byte("\n\n"))
	f.Fuzz(func(t *testing.T, stream []byte, id, name string, data []byte) {
		r := NewReader(bytes.NewReader(stream))
		for n := 0; ; n++ {
			if n > len(stream) {
				t.Fatalf("%d events from a %d-byte stream", n, len(stream))
			}
			if _, err := r.Next(); err != nil {
				break
			}
		}

		if strings.ContainsAny(id, "\r\n") || strings.ContainsAny(name, "\r\n") || bytes.ContainsRune(data, '\r') {
			return
		}
		var buf bytes.Buffer
		if err := WriteEvent(&buf, id, name, data); err != nil {
			t.Fatal(err)
		}
		want := Event{ID: id, Name: name, Data: string(data)}
		if name == "" {
			want.Name = "message"
		}
		r = NewReader(&buf)
		got, err := r.Next()
		if err != nil {
			t.Fatalf("reading back %q: %v", buf.Bytes(), err)
		}
		if got != want {
			t.Fatalf("round trip of %q: got %+v, want %+v", buf.Bytes(), got, want)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after the one frame: err = %v, want EOF", err)
		}
	})
}
