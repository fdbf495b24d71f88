// Package wire implements the little-endian binary encoding discipline
// shared by the repository's versioned artefact codecs (trace snapshots,
// analysis-cache entries): deterministic output, length-prefixed strings,
// count-field sanity checks before allocation, and an FNV-64a seal over
// the whole payload. The same value always encodes to the same bytes, so
// encoded artefacts can be content-addressed, diffed and golden-tested.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
)

// HashWriter applies the wire encoding discipline (little-endian
// integers, u64-length-prefixed strings, floats as IEEE-754 bit images)
// to a hash.Hash. Every content address in the repository — snapshot
// keys, analysis keys, platform fingerprints, partition hashes — feeds
// its hash through one of these, so the length-prefix discipline that
// keeps adjacent fields from aliasing lives in exactly one place.
type HashWriter struct {
	h       hash.Hash
	scratch [8]byte
}

// NewHashWriter wraps a hash with the wire encoding discipline.
func NewHashWriter(h hash.Hash) *HashWriter { return &HashWriter{h: h} }

// U64 hashes a little-endian uint64.
func (w *HashWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.h.Write(w.scratch[:])
}

// I64 hashes an int64 as its two's-complement uint64 image.
func (w *HashWriter) I64(v int64) { w.U64(uint64(v)) }

// F64 hashes a float64 as its exact IEEE-754 bit image.
func (w *HashWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool hashes a bool as one u64 (0 or 1).
func (w *HashWriter) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// Str hashes a u64 length prefix followed by the raw string bytes.
func (w *HashWriter) Str(s string) {
	w.U64(uint64(len(s)))
	w.h.Write([]byte(s))
}

// Encoder accumulates the little-endian wire form.
type Encoder struct {
	buf     bytes.Buffer
	scratch [8]byte
}

// Raw appends b verbatim (magic strings).
func (e *Encoder) Raw(b []byte) { e.buf.Write(b) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf.WriteByte(v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.scratch[:4], v)
	e.buf.Write(e.scratch[:4])
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], v)
	e.buf.Write(e.scratch[:8])
}

// I64 appends an int64 as its two's-complement uint64 image.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit image, preserving the exact
// value (including NaN payloads and signed zeros) across a round trip.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a u32 length prefix followed by the raw string bytes.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf.WriteString(s)
}

// Seal appends the FNV-64a checksum of everything encoded so far and
// returns the finished buffer. CheckSeal verifies and strips it.
func (e *Encoder) Seal() []byte {
	h := fnv.New64a()
	h.Write(e.buf.Bytes())
	e.U64(h.Sum64())
	return e.buf.Bytes()
}

// CheckSeal verifies the trailing FNV-64a checksum Seal appended and
// returns the payload without it.
func CheckSeal(raw []byte) ([]byte, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("wire: sealed payload truncated (%d bytes)", len(raw))
	}
	payload, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := binary.LittleEndian.Uint64(tail), h.Sum64(); got != want {
		return nil, fmt.Errorf("wire: checksum mismatch (%#x != %#x)", got, want)
	}
	return payload, nil
}

// Decoder consumes the wire form, latching the first error.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over the (already seal-checked) payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.buf) }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("wire: payload truncated (want %d bytes, have %d)", n, len(d.buf))
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// Fits rejects count fields whose minimal encoding (unit bytes per
// element) could not fit in the remaining buffer, before make() trusts
// them. The bound divides rather than multiplies, so a count large
// enough to wrap count*unit cannot pass.
func (d *Decoder) Fits(count, unit uint64) error {
	if d.err != nil {
		return d.err
	}
	if unit != 0 && count > uint64(len(d.buf))/unit {
		d.err = fmt.Errorf("wire: count %d exceeds remaining %d bytes", count, len(d.buf))
	}
	return d.err
}

// U8 consumes one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 consumes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool consumes one byte as a bool (any nonzero value is true).
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// I64 consumes an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 consumes a float64 bit image.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str consumes a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	if d.Fits(uint64(n), 1) != nil {
		return ""
	}
	return string(d.take(int(n)))
}
