package trace

import (
	"fmt"
	"io"

	"hmpt/internal/shim"
	"hmpt/internal/units"
	"hmpt/internal/wire"
)

// A Snapshot is a captured reference run: the phase trace the kernel
// emitted, the shim allocation registry it populated, and the metadata
// identifying the run. It is everything the tuning pipeline needs
// downstream of kernel execution, so an analysis replayed from a
// snapshot is byte-identical to one that re-executed the kernel — while
// skipping the most expensive stage entirely.
//
// Snapshots serialise through a versioned, deterministic binary codec:
// the same snapshot always encodes to the same bytes, so encoded
// snapshots can be content-addressed, diffed and golden-tested. The
// format is little-endian throughout, strings are length-prefixed, and
// the payload is sealed by a CRC-32C checksum.
type Snapshot struct {
	Meta     Meta
	Registry *shim.Registry
	Trace    *Trace
	// Samples optionally embeds the IBS sample counts of the captured
	// reference run — the platform-independent half of a sampling
	// report. A replay whose sampler controls and sampler version match
	// reconstructs the full report from them without running a sampling
	// pass; nil means the capture predates sampling embeds (or was
	// hand-built) and replays fall back to sampling live.
	Samples *SampleCounts
}

// SampleCounts is the platform-independent outcome of one sampling
// pass: the deterministic per-allocation sample and read counts of the
// capture's reference run. Everything else in a sampling report is
// either derived from these counts or recomputed against the replaying
// machine. SamplerVersion records the engine discipline that produced
// the counts; replays reject a version mismatch.
type SampleCounts struct {
	SamplerVersion uint32
	Period         int64 // effective cache-lines-per-sample period used
	Total          int64
	Unmapped       int64
	ByAlloc        []SampleAllocCount // ascending by ID
}

// SampleAllocCount is the sample tally of one allocation.
type SampleAllocCount struct {
	ID      shim.AllocID
	Samples int64
	Reads   int64
}

// Meta identifies the run a snapshot captured. Workload, Config,
// Threads, Scale and Seed are the capture inputs (the cache key);
// EnvSeed is the derived workload-environment seed and SimBytes the
// simulated footprint at capture time, both recorded for validation and
// inspection.
type Meta struct {
	Workload string
	// Config tags the workload instance configuration (for example the
	// experiments' reduced-size "fast" vs benchmark-scale "full"
	// instances), distinguishing captures that share a name and seed
	// but execute different kernels.
	Config   string
	Threads  int
	Scale    float64
	Seed     uint64
	EnvSeed  uint64
	SimBytes units.Bytes
	// SamplePeriod and SampleBudget are the sampler controls the
	// embedded sample counts (Snapshot.Samples) were captured under.
	// They are capture inputs like Seed: a replay under different
	// sampler controls must address a different snapshot.
	SamplePeriod int64
	SampleBudget int
	// Iterations is the iteration-count override the kernel executed
	// under (core.Options.Iterations; 0 = the workload's default). It is
	// a capture input: a different timestep count executes a different
	// kernel and must address a different snapshot.
	Iterations int
}

// SnapshotVersion is the codec version written by Encode and required by
// DecodeSnapshot. Bump it on any change to the wire format; the snapshot
// cache keys on it, so old cache entries are simply never resurrected.
//
// v2 added the sampler controls to Meta and the optional embedded
// sample-counts section.
//
// v3 added the iteration-count override to Meta, and captures began
// storing the canonical deduplicated trace (each distinct phase shape
// once, multiplicity in Repeat — see Canonical): the embedded sample counts
// of a v2 capture were derived over the raw phase sequence and would not
// validate against a canonicalised replay, so the bump retires them
// wholesale.
//
// v4 replaced the FNV-64a seal with CRC-32C and made the sample-counts
// presence flag a strict bool.
const SnapshotVersion = 4

// snapshotMagic leads every encoded snapshot.
const snapshotMagic = "HMPTSNAP"

// Encode writes the snapshot to w in the versioned binary format.
func (s *Snapshot) Encode(w io.Writer) error {
	b, err := s.EncodeBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeBytes returns the deterministic encoding of the snapshot.
func (s *Snapshot) EncodeBytes() ([]byte, error) {
	if s.Registry == nil || s.Trace == nil {
		return nil, fmt.Errorf("trace: snapshot missing registry or trace")
	}
	var e wire.Encoder
	e.Grow(s.EncodedLen())
	e.Raw([]byte(snapshotMagic))
	e.U32(SnapshotVersion)

	e.Str(s.Meta.Workload)
	e.Str(s.Meta.Config)
	e.I64(int64(s.Meta.Threads))
	e.F64(s.Meta.Scale)
	e.U64(s.Meta.Seed)
	e.U64(s.Meta.EnvSeed)
	e.I64(int64(s.Meta.SimBytes))
	e.I64(s.Meta.SamplePeriod)
	e.I64(int64(s.Meta.SampleBudget))
	e.I64(int64(s.Meta.Iterations))

	reg := s.Registry
	e.U32(uint32(len(reg.Allocs)))
	for i := range reg.Allocs {
		a := &reg.Allocs[i]
		e.U64(uint64(a.ID))
		e.U64(uint64(a.Site))
		e.Str(a.Label)
		e.U64(a.Addr)
		e.I64(int64(a.SimSize))
		e.I64(int64(a.RealSize))
		e.F64(a.Scale)
		e.U64(a.Birth)
		e.U64(a.Death)
		e.I64(int64(a.Hint))
	}
	e.U64(uint64(reg.Next))
	e.U64(reg.Ordinal)
	e.U64(reg.Brk)

	e.U32(uint32(len(s.Trace.Phases)))
	for i := range s.Trace.Phases {
		p := &s.Trace.Phases[i]
		e.Str(p.Name)
		e.I64(int64(p.Threads))
		e.F64(float64(p.Flops))
		e.F64(p.VectorFrac)
		e.F64(p.FlopEff)
		e.I64(p.Repeat)
		e.U32(uint32(len(p.Streams)))
		for _, st := range p.Streams {
			e.U64(uint64(st.Alloc))
			e.I64(int64(st.Bytes))
			e.U8(uint8(st.Kind))
			e.U8(uint8(st.Pattern))
			e.I64(int64(st.WorkingSet))
			e.F64(st.MLP)
		}
	}

	e.Bool(s.Samples != nil)
	if sc := s.Samples; sc != nil {
		e.U32(sc.SamplerVersion)
		e.I64(sc.Period)
		e.I64(sc.Total)
		e.I64(sc.Unmapped)
		e.U32(uint32(len(sc.ByAlloc)))
		for _, a := range sc.ByAlloc {
			e.U64(uint64(a.ID))
			e.I64(a.Samples)
			e.I64(a.Reads)
		}
	}

	return e.Seal(), nil
}

// EncodedLen is the exact length EncodeBytes produces, so an encode
// sizes its buffer once (and the campaign engine's in-process store can
// charge a retained capture without encoding it).
func (s *Snapshot) EncodedLen() int {
	n := len(snapshotMagic) + 4
	n += wire.StrLen(s.Meta.Workload) + wire.StrLen(s.Meta.Config) + 8*8
	n += 4 + 3*8
	for i := range s.Registry.Allocs {
		n += 9*8 + wire.StrLen(s.Registry.Allocs[i].Label)
	}
	n += 4
	for i := range s.Trace.Phases {
		p := &s.Trace.Phases[i]
		n += wire.StrLen(p.Name) + 5*8 + 4 + 34*len(p.Streams)
	}
	n++
	if sc := s.Samples; sc != nil {
		n += 4 + 3*8 + 4 + 24*len(sc.ByAlloc)
	}
	return n + wire.SealLen
}

// DecodeSnapshot reads one snapshot from r, validating magic, version
// and checksum. It fails on trailing garbage: a snapshot file holds
// exactly one snapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading snapshot: %w", err)
	}
	return DecodeSnapshotBytes(raw)
}

// DecodeSnapshotBytes decodes an encoded snapshot.
func DecodeSnapshotBytes(raw []byte) (*Snapshot, error) {
	if len(raw) < len(snapshotMagic)+4+wire.SealLen {
		return nil, fmt.Errorf("trace: snapshot truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("trace: bad snapshot magic %q", raw[:len(snapshotMagic)])
	}
	payload, err := wire.CheckSeal(raw)
	if err != nil {
		return nil, fmt.Errorf("trace: snapshot: %w", err)
	}
	d := wire.NewDecoder(payload[len(snapshotMagic):])
	if v := d.U32(); v != SnapshotVersion {
		return nil, fmt.Errorf("trace: snapshot codec version %d, this build reads %d", v, SnapshotVersion)
	}

	s := &Snapshot{Registry: &shim.Registry{}, Trace: &Trace{}}
	s.Meta.Workload = d.Str()
	s.Meta.Config = d.Str()
	s.Meta.Threads = int(d.I64())
	s.Meta.Scale = d.F64()
	s.Meta.Seed = d.U64()
	s.Meta.EnvSeed = d.U64()
	s.Meta.SimBytes = units.Bytes(d.I64())
	s.Meta.SamplePeriod = d.I64()
	s.Meta.SampleBudget = int(d.I64())
	s.Meta.Iterations = int(d.I64())

	nAllocs := d.U32()
	if err := d.Fits(uint64(nAllocs), 60); err != nil {
		return nil, err
	}
	s.Registry.Allocs = make([]shim.Allocation, nAllocs)
	for i := range s.Registry.Allocs {
		a := &s.Registry.Allocs[i]
		a.ID = shim.AllocID(d.U64())
		a.Site = shim.SiteID(d.U64())
		a.Label = d.Str()
		a.Addr = d.U64()
		a.SimSize = units.Bytes(d.I64())
		a.RealSize = units.Bytes(d.I64())
		a.Scale = d.F64()
		a.Birth = d.U64()
		a.Death = d.U64()
		a.Hint = shim.PoolHint(d.I64())
	}
	s.Registry.Next = shim.AllocID(d.U64())
	s.Registry.Ordinal = d.U64()
	s.Registry.Brk = d.U64()

	nPhases := d.U32()
	if err := d.Fits(uint64(nPhases), 40); err != nil {
		return nil, err
	}
	s.Trace.Phases = make([]Phase, nPhases)
	for i := range s.Trace.Phases {
		p := &s.Trace.Phases[i]
		p.Name = d.Str()
		p.Threads = int(d.I64())
		p.Flops = units.Flops(d.F64())
		p.VectorFrac = d.F64()
		p.FlopEff = d.F64()
		p.Repeat = d.I64()
		nStreams := d.U32()
		if err := d.Fits(uint64(nStreams), 34); err != nil {
			return nil, err
		}
		if nStreams == 0 {
			continue // keep a streamless phase's nil slice
		}
		p.Streams = make([]Stream, nStreams)
		for j := range p.Streams {
			st := &p.Streams[j]
			st.Alloc = shim.AllocID(d.U64())
			st.Bytes = units.Bytes(d.I64())
			st.Kind = Kind(d.U8())
			st.Pattern = Pattern(d.U8())
			st.WorkingSet = units.Bytes(d.I64())
			st.MLP = d.F64()
		}
	}
	if d.Bool() {
		sc := &SampleCounts{}
		sc.SamplerVersion = d.U32()
		sc.Period = d.I64()
		sc.Total = d.I64()
		sc.Unmapped = d.I64()
		nCounts := d.U32()
		if err := d.Fits(uint64(nCounts), 24); err != nil {
			return nil, err
		}
		sc.ByAlloc = make([]SampleAllocCount, nCounts)
		for i := range sc.ByAlloc {
			a := &sc.ByAlloc[i]
			a.ID = shim.AllocID(d.U64())
			a.Samples = d.I64()
			a.Reads = d.I64()
		}
		s.Samples = sc
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after snapshot", d.Len())
	}
	return s, nil
}
