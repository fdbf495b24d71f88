package trace

import (
	"bytes"
	"reflect"
	"testing"

	"hmpt/internal/shim"
	"hmpt/internal/units"
	"hmpt/internal/xrand"
)

// loopTrace builds an iterative-kernel-shaped trace: the given phase
// shapes emitted round-robin for iters iterations — the pattern the
// recorder's adjacent collapse cannot compress.
func loopTrace(shapes []Phase, iters int) *Trace {
	tr := &Trace{}
	for it := 0; it < iters; it++ {
		for i := range shapes {
			p := shapes[i]
			p.Streams = append([]Stream(nil), p.Streams...)
			tr.Phases = append(tr.Phases, p)
		}
	}
	return tr
}

func demoShapes() []Phase {
	return []Phase{
		{Name: "rhs", Threads: 4, Flops: 100, VectorFrac: 0.5, Streams: []Stream{
			{Alloc: 1, Bytes: units.MiB, Kind: Read, Pattern: Stencil},
			{Alloc: 2, Bytes: 2 * units.MiB, Kind: Write, Pattern: Sequential},
		}},
		{Name: "solve", Threads: 4, Flops: 900, FlopEff: 0.1, Streams: []Stream{
			{Alloc: 2, Bytes: 3 * units.MiB, Kind: Update, Pattern: Stencil},
		}},
		{Name: "add", Streams: []Stream{
			{Alloc: 1, Bytes: units.MiB, Kind: Update, Pattern: Sequential},
		}},
	}
}

// TestDedupFoldsLoopStructure: a 3-shape body iterated 50 times folds to
// 3 distinct phases with multiplicity 50 each, in first-appearance
// order.
func TestDedupFoldsLoopStructure(t *testing.T) {
	shapes := demoShapes()
	tr := loopTrace(shapes, 50)
	can := tr.Canonical()
	if len(can.Phases) != 3 {
		t.Fatalf("canonical phases = %d, want 3", len(can.Phases))
	}
	for i := range can.Phases {
		if can.Phases[i].Name != shapes[i].Name {
			t.Errorf("canonical phase %d is %q, want first-appearance order %q", i, can.Phases[i].Name, shapes[i].Name)
		}
		if can.Phases[i].Times() != 50 {
			t.Errorf("canonical phase %d repeats %d, want 50", i, can.Phases[i].Times())
		}
	}
	if got, want := can.TotalBytes(), tr.TotalBytes(); got != want {
		t.Errorf("canonical TotalBytes %v, want %v (must be exactly preserved)", got, want)
	}
}

// TestDedupRespectsRepeat: pre-coalesced Repeat counts fold into the
// multiplicity (a phase with Repeat 4 counts as 4, Repeat 0 as once),
// whether the same-shape phases are adjacent or not.
func TestDedupRespectsRepeat(t *testing.T) {
	shapes := demoShapes()
	tr := &Trace{}
	a := shapes[0]
	a.Repeat = 4
	tr.Phases = append(tr.Phases, a, shapes[1])
	b := shapes[0]
	b.Repeat = 2
	c := shapes[0] // Repeat 0 == once
	tr.Phases = append(tr.Phases, b, c)

	can := tr.Canonical()
	if len(can.Phases) != 2 {
		t.Fatalf("distinct shapes = %d, want 2", len(can.Phases))
	}
	if can.Phases[0].Times() != 7 || can.Phases[1].Times() != 1 {
		t.Errorf("canonical multiplicities = %d, %d, want 7, 1", can.Phases[0].Times(), can.Phases[1].Times())
	}
}

// TestCanonicalIdempotent: the canonical form of a canonical trace is
// itself — what lets replays re-canonicalise harmlessly.
func TestCanonicalIdempotent(t *testing.T) {
	tr := loopTrace(demoShapes(), 12)
	can := tr.Canonical()
	again := can.Canonical()
	if !reflect.DeepEqual(can, again) {
		t.Errorf("canonical is not idempotent:\n once %+v\n twice %+v", can, again)
	}
}

// TestDedupDegenerateTraceZeroOverhead: a trace with no repetition at
// all canonicalises to itself — same phases, same order — and its
// canonical form encodes to exactly the same snapshot bytes as
// the original, so non-iterative workloads pay nothing for the layer.
func TestDedupDegenerateTraceZeroOverhead(t *testing.T) {
	shapes := demoShapes()
	tr := &Trace{}
	for i := range shapes {
		p := shapes[i]
		p.Flops += units.Flops(i * 1000) // make every phase distinct
		tr.Phases = append(tr.Phases, p)
	}
	can := tr.Canonical()
	// Times-normalisation aside (Repeat 0 becomes 1), the canonical
	// trace is the original.
	if len(can.Phases) != len(tr.Phases) {
		t.Fatalf("canonical phases = %d, want %d", len(can.Phases), len(tr.Phases))
	}
	for i := range can.Phases {
		if !sameShape(&can.Phases[i], &tr.Phases[i]) || can.Phases[i].Times() != tr.Phases[i].Times() {
			t.Errorf("canonical phase %d diverged from the original", i)
		}
	}

	snap := sampleSnapshot()
	snap.Samples = nil
	snap.Trace = tr
	raw, err := snap.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	snap.Trace = can
	canEnc, err := snap.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(canEnc) != len(raw) {
		t.Errorf("canonical encoding of an unrepetitive trace is %d bytes vs %d raw: dedup must cost nothing when there is nothing to fold",
			len(canEnc), len(raw))
	}
}

// TestDedupShrinksIterativeSnapshot: the headline size claim — an
// iterative kernel's snapshot shrinks superlinearly once the canonical
// trace replaces the raw phase sequence.
func TestDedupShrinksIterativeSnapshot(t *testing.T) {
	tr := loopTrace(demoShapes(), 40)
	snap := sampleSnapshot()
	snap.Samples = nil
	snap.Trace = tr
	raw, err := snap.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	snap.Trace = tr.Canonical()
	can, err := snap.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(raw)) / float64(len(can)); ratio < 3 {
		t.Errorf("canonical snapshot only %.1fx smaller (%d vs %d bytes), want >= 3x", ratio, len(can), len(raw))
	}
}

// randomTrace generates an arbitrary block structure: a random pool of
// distinct shapes, sequenced with random repeats and random loop bodies.
func randomTrace(rng *xrand.Rand) *Trace {
	nShapes := 1 + rng.Intn(6)
	shapes := make([]Phase, nShapes)
	for i := range shapes {
		shapes[i] = Phase{
			Name:       string(rune('a' + i)),
			Threads:    rng.Intn(8),
			Flops:      units.Flops(rng.Intn(1000)),
			VectorFrac: float64(rng.Intn(10)) / 10,
		}
		nStreams := rng.Intn(4)
		for s := 0; s < nStreams; s++ {
			shapes[i].Streams = append(shapes[i].Streams, Stream{
				Alloc:   shim.AllocID(1 + rng.Intn(5)),
				Bytes:   units.Bytes(rng.Intn(1 << 20)),
				Kind:    Kind(rng.Intn(3)),
				Pattern: Pattern(rng.Intn(4)),
			})
		}
	}
	tr := &Trace{}
	nOps := 1 + rng.Intn(30)
	for op := 0; op < nOps; op++ {
		p := shapes[rng.Intn(nShapes)]
		p.Streams = append([]Stream(nil), p.Streams...)
		p.Repeat = int64(rng.Intn(5))
		tr.Phases = append(tr.Phases, p)
	}
	return tr
}

// TestDedupPropertyRoundTrip: for arbitrary random block structures,
// (a) the snapshot codec round-trips the raw trace exactly, (b)
// Canonical preserves TotalBytes and equals a naive quadratic fold, so
// every shape keeps its total multiplicity, (c) Canonical is
// idempotent, and (d) the canonical form of the decoded snapshot equals
// the canonical form of the original — encode/decode and dedup commute.
func TestDedupPropertyRoundTrip(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		tr := randomTrace(rng)

		snap := sampleSnapshot()
		snap.Samples = nil
		snap.Trace = tr
		enc, err := snap.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSnapshotBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, dec) {
			t.Fatalf("trial %d: snapshot round trip mismatch", trial)
		}
		enc2, err := dec.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("trial %d: re-encoding changed bytes", trial)
		}

		can := tr.Canonical()
		if want := naiveCanonical(tr); !reflect.DeepEqual(can, want) {
			t.Fatalf("trial %d: Canonical diverged from the naive fold:\n got %+v\nwant %+v", trial, can, want)
		}
		if got, want := can.TotalBytes(), tr.TotalBytes(); got != want {
			t.Fatalf("trial %d: canonical TotalBytes %v, want %v", trial, got, want)
		}
		if !reflect.DeepEqual(can, can.Canonical()) {
			t.Fatalf("trial %d: canonical not idempotent", trial)
		}
		if !reflect.DeepEqual(can, dec.Trace.Canonical()) {
			t.Fatalf("trial %d: dedup and codec do not commute", trial)
		}
	}
}

// naiveCanonical is the quadratic reference fold Canonical must equal:
// every phase is compared against every distinct shape kept so far.
func naiveCanonical(tr *Trace) *Trace {
	out := &Trace{Phases: []Phase{}}
next:
	for i := range tr.Phases {
		p := tr.Phases[i]
		for j := range out.Phases {
			if sameShape(&out.Phases[j], &p) {
				out.Phases[j].Repeat += p.Times()
				continue next
			}
		}
		p.Repeat = p.Times()
		p.Streams = append([]Stream(nil), p.Streams...)
		out.Phases = append(out.Phases, p)
	}
	return out
}

// TestCanonicalEmptyTrace: an empty trace (nil or empty phase slice)
// canonicalises to a trace with an empty, non-nil phase slice.
func TestCanonicalEmptyTrace(t *testing.T) {
	want := &Trace{Phases: []Phase{}}
	for _, tr := range []*Trace{{}, {Phases: []Phase{}}} {
		if got := tr.Canonical(); !reflect.DeepEqual(got, want) {
			t.Errorf("Canonical(%#v) = %#v, want %#v", tr, got, want)
		}
	}
}

// TestCanonicalOwnsItsStreams: the canonical trace never aliases the
// stream slices of the trace it was folded from.
func TestCanonicalOwnsItsStreams(t *testing.T) {
	tr := loopTrace(demoShapes(), 2)
	can := tr.Canonical()
	can.Phases[0].Streams[0].Bytes++
	if tr.Phases[0].Streams[0].Bytes == can.Phases[0].Streams[0].Bytes {
		t.Fatal("canonical trace aliases the source trace's streams")
	}
}
