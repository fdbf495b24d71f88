package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip encodes one value of every primitive, seals the buffer,
// and decodes it back bit-exactly — including the float images a
// value-level comparison would blur (signed zero, a NaN payload).
func TestRoundTrip(t *testing.T) {
	const magic = "HMPTTEST"
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var e Encoder
	e.Raw([]byte(magic))
	e.U8(0xa5)
	e.U32(0xdeadbeef)
	e.U64(math.MaxUint64 - 1)
	e.I64(math.MinInt64)
	e.I64(-1)
	e.F64(math.Copysign(0, -1))
	e.F64(nan)
	e.F64(math.Inf(1))
	e.Bool(true)
	e.Bool(false)
	e.Str("")
	e.Str("héllo")
	raw := e.Seal()

	payload, err := CheckSeal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(payload[:len(magic)]); got != magic {
		t.Fatalf("magic = %q, want %q", got, magic)
	}
	d := NewDecoder(payload[len(magic):])
	if got := d.U8(); got != 0xa5 {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != math.MaxUint64-1 {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != math.MinInt64 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.I64(); got != -1 {
		t.Errorf("I64 = %d", got)
	}
	for _, want := range []float64{math.Copysign(0, -1), nan, math.Inf(1)} {
		if got := d.F64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("F64 bits = %#x, want %#x", math.Float64bits(got), math.Float64bits(want))
		}
	}
	if got := d.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool = true, want false")
	}
	for _, want := range []string{"", "héllo"} {
		if got := d.Str(); got != want {
			t.Errorf("Str = %q, want %q", got, want)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("%d bytes left over", d.Len())
	}
	// Reading past the end latches a truncation error.
	if d.U8(); d.Err() == nil {
		t.Error("read past the end did not error")
	}
}

// TestCheckSealRejectsDamage: a flipped bit anywhere in the sealed
// buffer, or a truncation, fails the seal.
func TestCheckSealRejectsDamage(t *testing.T) {
	var e Encoder
	e.Str("sealed payload")
	e.U64(42)
	good := e.Seal()
	if _, err := CheckSeal(good); err != nil {
		t.Fatal(err)
	}
	for i := range good {
		b := append([]byte(nil), good...)
		b[i] ^= 0x10
		if _, err := CheckSeal(b); err == nil {
			t.Errorf("bit flip at byte %d passed the seal", i)
		}
	}
	for _, n := range []int{0, 7, len(good) - 1} {
		if _, err := CheckSeal(good[:n]); err == nil {
			t.Errorf("truncation to %d bytes passed the seal", n)
		}
	}
}

// TestFitsRejectsWrappingCount: a count whose byte size wraps uint64
// (1<<61 elements of 8 bytes is 0 mod 2^64) must not pass as fitting.
func TestFitsRejectsWrappingCount(t *testing.T) {
	buf := make([]byte, 16)
	cases := []struct {
		count, unit uint64
		ok          bool
	}{
		{2, 8, true},
		{3, 8, false},
		{16, 1, true},
		{17, 1, false},
		{1 << 61, 8, false},
		{math.MaxUint64, 2, false},
		{math.MaxUint64, 0, true},
	}
	for _, c := range cases {
		err := NewDecoder(buf).Fits(c.count, c.unit)
		if (err == nil) != c.ok {
			t.Errorf("Fits(%d, %d) err=%v, want ok=%v", c.count, c.unit, err, c.ok)
		}
	}
}

// TestSealIsCRC32C pins the seal to the Castagnoli polynomial with the
// standard check value: CRC-32C("123456789") = 0xE3069283.
func TestSealIsCRC32C(t *testing.T) {
	var e Encoder
	e.Raw([]byte("123456789"))
	raw := e.Seal()
	if got, want := raw[len(raw)-SealLen:], []byte{0x83, 0x92, 0x06, 0xe3}; !bytes.Equal(got, want) {
		t.Fatalf("seal of %q = % x, want % x", "123456789", got, want)
	}
}

// TestCheckSealRejectsEverySingleBitFlip: CRC-32C detects every
// single-bit error, so no one-bit corruption of a sealed 1 KB payload —
// payload or seal — may pass.
func TestCheckSealRejectsEverySingleBitFlip(t *testing.T) {
	var e Encoder
	for i := 0; i < 1024; i++ {
		e.U8(uint8(i * 7))
	}
	good := e.Seal()
	b := append([]byte(nil), good...)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			if _, err := CheckSeal(b); err == nil {
				t.Fatalf("flip of bit %d in byte %d passed the seal", bit, i)
			}
			b[i] ^= 1 << bit
		}
	}
}

// TestGrowIsOnlyAHint: the same encoding with and without a Grow — too
// small, exact, or generous — produces identical bytes.
func TestGrowIsOnlyAHint(t *testing.T) {
	encode := func(grow int) []byte {
		var e Encoder
		if grow >= 0 {
			e.Grow(grow)
		}
		e.Raw([]byte("HMPTTEST"))
		e.U32(7)
		e.Str("grow")
		e.F64(math.Pi)
		e.Bool(true)
		return e.Seal()
	}
	want := encode(-1)
	for _, grow := range []int{0, 3, len(want), 4 * len(want)} {
		if got := encode(grow); !bytes.Equal(got, want) {
			t.Errorf("Grow(%d) changed the encoding", grow)
		}
	}
}

// TestBoolRejectsNonCanonicalBytes: only 0 and 1 decode as bools, so an
// accepted payload always re-encodes to the same bytes.
func TestBoolRejectsNonCanonicalBytes(t *testing.T) {
	d := NewDecoder([]byte{0, 1, 2})
	if d.Bool() || !d.Bool() || d.Err() != nil {
		t.Fatal("0 and 1 did not decode as false and true")
	}
	if d.Bool(); d.Err() == nil {
		t.Fatal("byte 2 decoded as a bool")
	}
}

// TestStrBytesAliasesBuffer: StrBytes reads the same string Str would,
// without copying it, and a length prefix past the end latches an error
// instead of returning bytes.
func TestStrBytesAliasesBuffer(t *testing.T) {
	var e Encoder
	e.Str("label")
	e.Str("next")
	buf := e.Seal()
	d := NewDecoder(buf)
	b := d.StrBytes()
	if string(b) != "label" || &b[0] != &buf[4] {
		t.Fatalf("StrBytes = %q, want the aliased bytes of %q", b, "label")
	}
	if got := d.Str(); got != "next" {
		t.Fatalf("Str after StrBytes = %q, want %q", got, "next")
	}
	if allocs := testing.AllocsPerRun(10, func() { NewDecoder(buf).StrBytes() }); allocs != 0 {
		t.Errorf("StrBytes makes %.0f allocations, want 0", allocs)
	}
	d = NewDecoder([]byte{9, 0, 0, 0, 'x'})
	if b := d.StrBytes(); b != nil || d.Err() == nil {
		t.Errorf("truncated StrBytes = %q, err %v; want nil and an error", b, d.Err())
	}
}

// TestRestSkip: Rest shows the unconsumed bytes without consuming them,
// Skip consumes them, a Skip past the end latches a truncation error,
// and Rest is nil once an error is latched.
func TestRestSkip(t *testing.T) {
	buf := []byte{1, 0, 0, 0, 'a', 'b', 'c'}
	d := NewDecoder(buf)
	if d.U32() != 1 {
		t.Fatal("U32 misread")
	}
	if rest := d.Rest(); string(rest) != "abc" || &rest[0] != &buf[4] || d.Len() != 3 {
		t.Fatalf("Rest = %q with %d left, want the aliased %q with 3 left", rest, d.Len(), "abc")
	}
	d.Skip(2)
	if d.Len() != 1 || d.U8() != 'c' || d.Err() != nil {
		t.Fatalf("after Skip(2): %d left, err %v", d.Len(), d.Err())
	}
	d.Skip(1)
	if d.Err() == nil {
		t.Fatal("Skip past the end latched no error")
	}
	if d.Rest() != nil {
		t.Error("Rest after an error is not nil")
	}
}

// TestHashWriterStrChunks: Str hashes exactly the length prefix and the
// string's bytes whatever the string's length relative to the scratch
// chunk, and allocates nothing.
func TestHashWriterStrChunks(t *testing.T) {
	h := sha256.New()
	w := NewHashWriter(h)
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 128, 200} {
		s := strings.Repeat("ab", n)[:n]
		h.Reset()
		w.Str(s)
		got := h.Sum(nil)
		want := sha256.Sum256(append(binary.LittleEndian.AppendUint64(nil, uint64(n)), s...))
		if !bytes.Equal(got, want[:]) {
			t.Errorf("len %d: Str hashed %x, want %x", n, got, want)
		}
	}
	long := strings.Repeat("x", 300)
	if allocs := testing.AllocsPerRun(100, func() { w.Str(long) }); allocs != 0 {
		t.Errorf("Str makes %.0f allocations, want 0", allocs)
	}
}
