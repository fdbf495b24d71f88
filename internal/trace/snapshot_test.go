package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hmpt/internal/shim"
	"hmpt/internal/units"
	"hmpt/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleSnapshot is a hand-authored snapshot exercising every field of
// the wire format: aliased sites, a freed allocation, a pool hint, all
// stream kinds and patterns, and non-trivial float fields.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Meta: Meta{
			Workload:     "golden.demo",
			Config:       "fast",
			Threads:      12,
			Scale:        1.5,
			Seed:         42,
			EnvSeed:      0xdeadbeefcafef00d,
			SimBytes:     24 * units.GiB,
			SamplePeriod: 1 << 16,
			SampleBudget: 200_000,
			Iterations:   40,
		},
		Registry: &shim.Registry{
			Allocs: []shim.Allocation{
				{ID: 1, Site: 100, Label: "a", Addr: 4096, SimSize: 16 * units.GiB,
					RealSize: 16 * units.MiB, Scale: 1024, Birth: 1, Hint: shim.NoHint},
				{ID: 2, Site: 100, Label: "a", Addr: 4096 + 16*uint64(units.GiB), SimSize: 8 * units.GiB,
					RealSize: 8 * units.MiB, Scale: 1024, Birth: 2, Hint: shim.PoolHint(1)},
				{ID: 3, Site: 200, Label: "scratch", Addr: 4096 + 24*uint64(units.GiB), SimSize: 4 * units.KiB,
					RealSize: 4 * units.KiB, Scale: 1, Birth: 3, Death: 4, Hint: shim.NoHint},
			},
			Next:    3,
			Ordinal: 4,
			Brk:     8192 + 24*uint64(units.GiB),
		},
		Trace: &Trace{Phases: []Phase{
			{
				Name: "sweep", Threads: 12, Flops: units.GFlops(3.25), VectorFrac: 0.875,
				FlopEff: 0.5, Repeat: 7,
				Streams: []Stream{
					{Alloc: 1, Bytes: units.GiB, Kind: Read, Pattern: Sequential},
					{Alloc: 2, Bytes: 2 * units.GiB, Kind: Write, Pattern: Stencil, MLP: 6.5},
				},
			},
			{
				Name: "gather", Flops: units.GFlops(0.125),
				Streams: []Stream{
					{Alloc: 1, Bytes: 512 * units.MiB, Kind: Update, Pattern: Random, WorkingSet: 64 * units.MiB},
					{Alloc: 3, Bytes: 4 * units.KiB, Kind: Read, Pattern: Chase, WorkingSet: 4 * units.KiB},
				},
			},
		}},
		Samples: &SampleCounts{
			SamplerVersion: 2,
			Period:         1 << 16,
			Total:          1234,
			Unmapped:       34,
			ByAlloc: []SampleAllocCount{
				{ID: 1, Samples: 900, Reads: 450},
				{ID: 2, Samples: 300, Reads: 0},
			},
		},
	}
}

// TestSnapshotRoundTrip: encode → decode reproduces the snapshot
// exactly, and re-encoding the decoded snapshot reproduces the bytes —
// the determinism the content-addressed cache relies on.
func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	b1, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := DecodeSnapshotBytes(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	b3, err := got.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("re-encoding the decoded snapshot changed the bytes")
	}
}

// TestSnapshotRoundTripNoSamples: the sample-counts section is
// optional; a snapshot without embedded counts (hand-built, or captured
// by a future sampler that opts out) round-trips with the absent flag.
func TestSnapshotRoundTripNoSamples(t *testing.T) {
	s := sampleSnapshot()
	s.Samples = nil
	b, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != nil {
		t.Fatalf("decoded absent samples section as %+v", got.Samples)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("round trip without samples mismatch")
	}
}

// TestSnapshotGolden pins the on-disk format: the sample snapshot must
// encode to exactly the committed golden bytes, and the golden bytes
// must decode to exactly the sample snapshot. Any codec change breaks
// this test and must bump SnapshotVersion with a new golden file.
func TestSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "snapshot_v4.snap")
	s := sampleSnapshot()
	enc, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(enc, golden) {
		t.Errorf("encoding diverged from golden file (%d vs %d bytes); bump SnapshotVersion for format changes", len(enc), len(golden))
	}
	dec, err := DecodeSnapshotBytes(golden)
	if err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if !reflect.DeepEqual(s, dec) {
		t.Error("golden file decodes to a different snapshot")
	}
}

// TestSnapshotDecodeRejects: corrupted inputs fail loudly, never decode
// to plausible garbage.
func TestSnapshotDecodeRejects(t *testing.T) {
	good, err := sampleSnapshot().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"truncated": func() []byte { return good[:len(good)/2] },
		"bad magic": func() []byte {
			b := append([]byte(nil), good...)
			b[0] ^= 0xff
			return b
		},
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			b[len(snapshotMagic)] = 99
			return b
		},
		"flipped payload bit": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 1
			return b
		},
		"trailing garbage": func() []byte { return append(append([]byte(nil), good...), 0xAA) },
	}
	for name, mutate := range cases {
		if _, err := DecodeSnapshotBytes(mutate()); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestRegistryRestore: Export → Restore reproduces allocator behaviour —
// sites, resolution, footprint — and continues ID/address streams.
func TestRegistryRestore(t *testing.T) {
	al := shim.NewAllocator()
	a := al.Register("a", 8*units.MiB, 4)
	b := al.Register("b", 4*units.MiB, 4)
	if err := al.Free(b.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := shim.Restore(al.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(al.Sites(), restored.Sites()) {
		t.Error("restored sites differ")
	}
	if al.TotalSimBytes() != restored.TotalSimBytes() {
		t.Errorf("footprint: %v != %v", al.TotalSimBytes(), restored.TotalSimBytes())
	}
	if got := restored.Resolve(a.Addr + 64); got == nil || got.ID != a.ID {
		t.Errorf("restored allocator resolves %#x to %v, want allocation %d", a.Addr+64, got, a.ID)
	}
	if got := restored.Lookup(b.ID); got == nil || got.Live() {
		t.Error("freed allocation resurrected by restore")
	}
	c1 := al.Register("c", units.MiB, 1)
	c2 := restored.Register("c", units.MiB, 1)
	if c1.ID != c2.ID || c1.Addr != c2.Addr || c1.Birth != c2.Birth {
		t.Errorf("post-restore allocation streams diverge: %+v vs %+v", c1, c2)
	}
}

// TestRegistryRestoreRejects: structurally invalid registries error.
func TestRegistryRestoreRejects(t *testing.T) {
	cases := map[string]*shim.Registry{
		"zero id":      {Allocs: []shim.Allocation{{ID: 0, Addr: 4096}}, Next: 1},
		"duplicate id": {Allocs: []shim.Allocation{{ID: 1, Addr: 4096}, {ID: 1, Addr: 8192}}, Next: 2},
		"zero addr":    {Allocs: []shim.Allocation{{ID: 1}}, Next: 1},
		"next too low": {Allocs: []shim.Allocation{{ID: 1, Addr: 4096}, {ID: 2, Addr: 8192}}, Next: 1},
	}
	for name, reg := range cases {
		if _, err := shim.Restore(reg); err == nil {
			t.Errorf("%s: restore succeeded, want error", name)
		}
	}
}

// TestSnapshotCache: store/load round trip, misses, and rejection of
// entries whose metadata does not match the key.
func TestSnapshotCache(t *testing.T) {
	cache, err := NewSnapshotCache(filepath.Join(t.TempDir(), "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot()
	key := SnapshotKey{Workload: s.Meta.Workload, Config: s.Meta.Config, Threads: s.Meta.Threads, Scale: s.Meta.Scale, Seed: s.Meta.Seed,
		SamplePeriod: s.Meta.SamplePeriod, SampleBudget: int64(s.Meta.SampleBudget), Iterations: s.Meta.Iterations}

	if _, ok, err := cache.Load(key); err != nil || ok {
		t.Fatalf("empty cache: ok=%v err=%v, want miss", ok, err)
	}
	if err := cache.Store(key, s); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cache.Load(key)
	if err != nil || !ok {
		t.Fatalf("load after store: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("cache round trip mismatch")
	}

	other := key
	other.Seed++
	if _, ok, _ := cache.Load(other); ok {
		t.Error("different key hit the same entry")
	}
	if err := cache.Store(other, s); err == nil {
		t.Error("storing under a mismatched key succeeded, want error")
	}

	// A swapped-in file whose metadata mismatches the key is an error,
	// not a silent wrong answer.
	if err := os.Rename(cache.Path(key), cache.Path(other)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Load(other); err == nil {
		t.Error("loading an entry with mismatched metadata succeeded, want error")
	}
}

// TestSnapshotKeyID: the content address is stable per key and distinct
// across keys.
func TestSnapshotKeyID(t *testing.T) {
	k := SnapshotKey{Workload: "w", Threads: 2, Scale: 1, Seed: 3}
	if k.ID() != k.ID() {
		t.Error("key ID is not stable")
	}
	variants := []SnapshotKey{
		{Workload: "w2", Threads: 2, Scale: 1, Seed: 3},
		{Workload: "w", Config: "full", Threads: 2, Scale: 1, Seed: 3},
		{Workload: "w", Threads: 3, Scale: 1, Seed: 3},
		{Workload: "w", Threads: 2, Scale: 2, Seed: 3},
		{Workload: "w", Threads: 2, Scale: 1, Seed: 4},
		{Workload: "w", Threads: 2, Scale: 1, Seed: 3, SamplePeriod: 1 << 14},
		{Workload: "w", Threads: 2, Scale: 1, Seed: 3, SampleBudget: 50_000},
		{Workload: "w", Threads: 2, Scale: 1, Seed: 3, SamplerVersion: 3},
		{Workload: "w", Threads: 2, Scale: 1, Seed: 3, Iterations: 40},
	}
	for _, v := range variants {
		if v.ID() == k.ID() {
			t.Errorf("distinct keys collide: %+v vs %+v", k, v)
		}
	}
}

// TestSnapshotEncodedLenIsExact: EncodedLen predicts the encoding's
// length exactly, so an encode sizes its buffer once.
func TestSnapshotEncodedLenIsExact(t *testing.T) {
	noSamples := sampleSnapshot()
	noSamples.Samples = nil
	for name, s := range map[string]*Snapshot{
		"sample":     sampleSnapshot(),
		"no samples": noSamples,
		"empty":      {Registry: &shim.Registry{}, Trace: &Trace{}},
	} {
		raw, err := s.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != s.EncodedLen() {
			t.Errorf("%s: encoded %d bytes, EncodedLen predicts %d", name, len(raw), s.EncodedLen())
		}
	}
}

// FuzzDecodeSnapshotBytes: the decoder never panics on arbitrary bytes,
// and any input it accepts re-encodes to exactly the same bytes. Each
// input is also tried re-sealed, so mutations reach the body decoder
// instead of stopping at the checksum.
func FuzzDecodeSnapshotBytes(f *testing.F) {
	if golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_v4.snap")); err == nil {
		f.Add(golden)
	}
	noSamples := sampleSnapshot()
	noSamples.Samples = nil
	empty := &Snapshot{Registry: &shim.Registry{}, Trace: &Trace{}}
	for _, s := range []*Snapshot{sampleSnapshot(), noSamples, empty} {
		raw, err := s.EncodeBytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		requireSnapshotRoundTrip(t, raw)
		if len(raw) >= wire.SealLen {
			var e wire.Encoder
			e.Raw(raw[:len(raw)-wire.SealLen])
			requireSnapshotRoundTrip(t, e.Seal())
		}
	})
}

func requireSnapshotRoundTrip(t *testing.T, raw []byte) {
	t.Helper()
	s, err := DecodeSnapshotBytes(raw)
	if err != nil {
		return
	}
	re, err := s.EncodeBytes()
	if err != nil {
		t.Fatalf("re-encoding an accepted snapshot: %v", err)
	}
	if !bytes.Equal(re, raw) {
		t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(raw), len(re))
	}
}
