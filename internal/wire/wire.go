// Package wire implements the little-endian binary encoding discipline
// shared by the repository's versioned artefact codecs (trace snapshots,
// analysis-cache entries, shard journal records): deterministic output,
// length-prefixed strings, count-field sanity checks before allocation,
// and a CRC-32C (Castagnoli) seal over the whole payload. The same value
// always encodes to the same bytes, so encoded artefacts can be
// content-addressed, diffed and golden-tested.
//
// The seal detects corruption — torn writes, flipped bits — and nothing
// more; content addresses are SHA-256 over the key, never the seal. The
// Encoder appends into one byte slice, so a codec that computes its
// exact length first (Grow) encodes with a single allocation.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"slices"
)

// HashWriter applies the wire encoding discipline (little-endian
// integers, u64-length-prefixed strings, floats as IEEE-754 bit images)
// to a hash.Hash. Every content address in the repository — snapshot
// keys, analysis keys, platform fingerprints, partition hashes — feeds
// its hash through one of these, so the length-prefix discipline that
// keeps adjacent fields from aliasing lives in exactly one place.
type HashWriter struct {
	h       hash.Hash
	scratch [64]byte
}

// NewHashWriter wraps a hash with the wire encoding discipline.
func NewHashWriter(h hash.Hash) *HashWriter { return &HashWriter{h: h} }

// U64 hashes a little-endian uint64.
func (w *HashWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], v)
	w.h.Write(w.scratch[:8])
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

// Str hashes a u64 length prefix followed by the raw string bytes. The
// bytes reach the hash in chunks copied through the scratch array:
// []byte(s) would allocate a copy on every call, and neither
// crypto/sha256 nor hash/fnv takes a string directly.
func (w *HashWriter) Str(s string) {
	w.U64(uint64(len(s)))
	for len(s) > 0 {
		n := copy(w.scratch[:], s)
		w.h.Write(w.scratch[:n])
		s = s[n:]
	}
}

// Encoder appends the little-endian wire form to a byte slice. The
// zero value is ready to use; Grow pre-sizes the buffer so a codec that
// knows its encoded length up front encodes with one allocation.
type Encoder struct {
	buf []byte
}

// Grow ensures room for at least n more bytes without reallocating. It
// is a capacity hint only: the encoded bytes are the same with or
// without it.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Raw appends b verbatim (magic strings).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32. U32 and U64 spell the bytes out
// in one append to e.buf rather than assigning the result of
// binary.LittleEndian.Append*: appending to the field in place lets the
// compiler update only the length when capacity suffices, instead of
// storing the whole slice header — and paying a GC write barrier — on
// every field.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
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
	e.buf = append(e.buf, s...)
}

// StrLen is the encoded size of Str(s), for codecs that compute their
// exact length before encoding.
func StrLen(s string) int { return 4 + len(s) }

// SealLen is the size of the trailing seal Seal appends.
const SealLen = 4

// castagnoli is the CRC-32C table; hash/crc32 recognises it and uses
// the SSE4.2 / ARMv8 CRC instructions where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal appends the CRC-32C checksum of everything encoded so far and
// returns the finished buffer. CheckSeal verifies and strips it.
func (e *Encoder) Seal() []byte {
	e.U32(crc32.Checksum(e.buf, castagnoli))
	return e.buf
}

// CheckSeal verifies the trailing CRC-32C checksum Seal appended and
// returns the payload without it.
func CheckSeal(raw []byte) ([]byte, error) {
	if len(raw) < SealLen {
		return nil, fmt.Errorf("wire: sealed payload truncated (%d bytes)", len(raw))
	}
	payload, tail := raw[:len(raw)-SealLen], raw[len(raw)-SealLen:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("wire: checksum mismatch (%#x != %#x)", got, want)
	}
	return payload, nil
}

// Decoder consumes the wire form, latching the first error. It advances
// an offset into the buffer it was given rather than re-slicing it, so
// a read stores no pointer (the comment on the Encoder's U32 says why that
// matters).
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over the (already seal-checked) payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Rest returns the unconsumed bytes without consuming them, or nil once
// an error is latched. It lets a codec parse a long run of fixed-width
// fields with one length check per run instead of one per field; the
// caller then consumes what it parsed with Skip. The slice aliases the
// decoder's buffer.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.buf[d.off:]
}

// Skip consumes the next n bytes, latching a truncation error if fewer
// remain.
func (d *Decoder) Skip(n int) { d.take(n) }

// take consumes the next n bytes, or latches a truncation error and
// returns nil.
func (d *Decoder) take(n int) []byte {
	if d.err != nil || n > d.Len() {
		d.truncated(n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) truncated(n int) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: payload truncated (want %d bytes, have %d)", n, d.Len())
	}
}

// Fits rejects count fields whose minimal encoding (unit bytes per
// element) could not fit in the remaining buffer, before make() trusts
// them. The bound divides rather than multiplies, so a count large
// enough to wrap count*unit cannot pass.
func (d *Decoder) Fits(count, unit uint64) error {
	if d.err != nil {
		return d.err
	}
	if unit != 0 && count > uint64(d.Len())/unit {
		d.err = fmt.Errorf("wire: count %d exceeds remaining %d bytes", count, d.Len())
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

// Bool consumes one byte as a bool. Only 0 and 1 are valid: any other
// byte latches an error, so every payload the decoder accepts re-encodes
// to the same bytes.
func (d *Decoder) Bool() bool {
	switch b := d.U8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: invalid bool byte %#x", b)
		}
		return false
	}
}

// I64 consumes an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 consumes a float64 bit image.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str consumes a length-prefixed string.
func (d *Decoder) Str() string { return string(d.StrBytes()) }

// StrBytes consumes a length-prefixed string like Str but returns its
// bytes without copying them: the slice aliases the decoder's buffer,
// so a caller that keeps the bytes copies them (a codec gathering many
// strings into one allocation does exactly that).
func (d *Decoder) StrBytes() []byte {
	n := d.U32()
	if d.Fits(uint64(n), 1) != nil {
		return nil
	}
	return d.take(int(n))
}
