package wire

import (
	"math"
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
