package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Binary layout of one record body (all integers uvarint, strings and the
// blob uvarint-length-prefixed):
//
//	type | seq | unixnano (zig-zag) | jobID | state | attempts | traceID | error | blob
//
// On disk a body becomes one frame:
//
//	uvarint(len(body)) | body | crc32-IEEE(body), 4 bytes little-endian
//
// sealed.bin holds sealed entries in the same envelope, each entry's
// bytes as the body.
//
// The CRC covers the body only; a torn or corrupted tail fails either the
// length bound or the CRC and replay stops at the previous frame.

var (
	// errCorrupt reports a frame that fails structural decoding; replay
	// treats it as the end of the valid log.
	errCorrupt = errors.New("store: corrupt frame")
)

// maxFrameBody bounds a single record body (64 MiB): a length prefix
// beyond it is treated as corruption, not an allocation request.
const maxFrameBody = 64 << 20

// appendUvarint/appendString are small wrappers over encoding/binary's
// append API keeping encodeBody readable.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeBody serializes the record body (no frame envelope).
func encodeBody(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendVarint(buf, r.UnixNano)
	buf = appendString(buf, r.JobID)
	buf = appendString(buf, r.State)
	buf = binary.AppendUvarint(buf, uint64(r.Attempts))
	buf = appendString(buf, r.TraceID)
	buf = appendString(buf, r.Error)
	buf = binary.AppendUvarint(buf, uint64(len(r.Blob)))
	return append(buf, r.Blob...)
}

// encodeFrame wraps a record into its on-disk frame.
func encodeFrame(buf []byte, r *Record) []byte {
	return appendFrame(buf, encodeBody(nil, r))
}

// appendFrame appends body to buf in the frame envelope. Log records and
// sealed entries share it.
func appendFrame(buf, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// cursor walks a byte slice with bounds-checked reads.
type cursor struct {
	buf []byte
	off int
}

// uvarint decodes a minimally encoded uvarint, returning n <= 0 on
// error. An overlong encoding, which the encoder never writes, is
// rejected so that every accepted frame re-encodes to its own bytes.
func uvarint(buf []byte) (uint64, int) {
	v, n := binary.Uvarint(buf)
	var minimal [binary.MaxVarintLen64]byte
	if n > 0 && n != binary.PutUvarint(minimal[:], v) {
		return 0, 0
	}
	return v, n
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, errCorrupt
	}
	c.off += n
	return v, nil
}

// varint decodes a zig-zag varint through the minimal-uvarint check.
func (c *cursor) varint() (int64, error) {
	u, err := c.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, err
}

func (c *cursor) bytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.buf)-c.off) {
		return nil, errCorrupt
	}
	out := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return out, nil
}

func (c *cursor) string() (string, error) {
	b, err := c.bytes()
	return string(b), err
}

// decodeBody parses one record body. The returned record owns copies of
// its strings; Blob is copied so callers may retain it past the caller's
// buffer reuse.
func decodeBody(body []byte) (*Record, error) {
	c := &cursor{buf: body}
	if len(body) == 0 {
		return nil, errCorrupt
	}
	r := &Record{Type: RecordType(body[0])}
	c.off = 1
	if r.Type < RecSubmit || r.Type > RecRepair {
		return nil, fmt.Errorf("%w: unknown record type %d", errCorrupt, body[0])
	}
	var err error
	if r.Seq, err = c.uvarint(); err != nil {
		return nil, err
	}
	if r.UnixNano, err = c.varint(); err != nil {
		return nil, err
	}
	if r.JobID, err = c.string(); err != nil {
		return nil, err
	}
	if r.State, err = c.string(); err != nil {
		return nil, err
	}
	att, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	r.Attempts = int(att)
	if r.TraceID, err = c.string(); err != nil {
		return nil, err
	}
	if r.Error, err = c.string(); err != nil {
		return nil, err
	}
	blob, err := c.bytes()
	if err != nil {
		return nil, err
	}
	if len(blob) > 0 {
		r.Blob = append([]byte(nil), blob...)
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(body)-c.off)
	}
	return r, nil
}

// decodeFrame parses one frame starting at buf[0]. It returns the decoded
// record and the total frame length consumed. Any structural problem —
// truncated length prefix, body extending past the buffer, CRC mismatch —
// returns errCorrupt so the caller treats the offset as the end of the
// valid log.
func decodeFrame(buf []byte) (*Record, int, error) {
	body, total, err := frameBody(buf)
	if err != nil {
		return nil, 0, err
	}
	rec, err := decodeBody(body)
	if err != nil {
		return nil, 0, err
	}
	return rec, total, nil
}

// frameSeq returns the sequence number and total length of the frame
// starting at buf[0], checking the envelope as decodeFrame does but
// decoding only the body's type byte and sequence.
func frameSeq(buf []byte) (uint64, int, error) {
	body, total, err := frameBody(buf)
	if err != nil {
		return 0, 0, err
	}
	if len(body) < 2 {
		return 0, 0, errCorrupt
	}
	seq, n := uvarint(body[1:])
	if n <= 0 {
		return 0, 0, errCorrupt
	}
	return seq, total, nil
}

// frameBody checks the envelope of the frame starting at buf[0] — length
// prefix, bounds and CRC — and returns its body and total length.
func frameBody(buf []byte) ([]byte, int, error) {
	bodyLen, n := uvarint(buf)
	if n <= 0 || bodyLen > maxFrameBody {
		return nil, 0, errCorrupt
	}
	total := n + int(bodyLen) + crcSize
	if total > len(buf) {
		return nil, 0, errCorrupt
	}
	body := buf[n : n+int(bodyLen)]
	want := binary.LittleEndian.Uint32(buf[n+int(bodyLen):])
	if crc32.ChecksumIEEE(body) != want {
		return nil, 0, fmt.Errorf("%w: crc mismatch", errCorrupt)
	}
	return body, total, nil
}

// crcSize is the trailing checksum width of every frame.
const crcSize = 4
