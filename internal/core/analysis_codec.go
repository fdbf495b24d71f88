package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"hmpt/internal/shim"
	"hmpt/internal/units"
	"hmpt/internal/wire"
)

// analysisMagic leads every encoded analysis.
const analysisMagic = "HMPTANAL"

// Minimal encoded sizes of one group and one config (every variable
// part empty), the per-element bounds the decoder checks counts against
// before trusting them.
const (
	minGroupLen  = 8 + 4 + 1 + 4 + 4*8
	minConfigLen = 4 + 4 + 4 + 3*8 + 4 + 4*8 + 1
)

// EncodeAnalysis returns the deterministic encoding of the analysis
// under its cache key: the magic, the body AppendAnalysis writes, and a
// CRC-32C seal — the same wire discipline as the snapshot codec. The
// key's ID is embedded so a cache Load can detect renamed or colliding
// entries. The same analysis always encodes to the same bytes, and a
// decode of those bytes is reflect.DeepEqual to the original
// (zero-length slices round-trip as nil, matching how the pipeline
// builds them).
func EncodeAnalysis(k AnalysisKey, an *Analysis) ([]byte, error) {
	return encodeAnalysis(k.ID(), an)
}

// EncodeAnalysisRaw encodes the analysis under a caller-chosen
// identifier instead of an AnalysisKey, for callers that address
// analyses by something other than a cache key — a GroupBy cell has no
// sites-free AnalysisKey to offer. Decoding returns the same identifier
// for the caller to validate.
func EncodeAnalysisRaw(id string, an *Analysis) ([]byte, error) {
	return encodeAnalysis(id, an)
}

// encodeAnalysis seals the body under the analysis magic. The exact
// length is computed first, so the encode is one allocation.
func encodeAnalysis(id string, an *Analysis) ([]byte, error) {
	if an == nil {
		return nil, fmt.Errorf("core: nil analysis")
	}
	var e wire.Encoder
	e.Grow(len(analysisMagic) + AnalysisLen(id, an) + wire.SealLen)
	e.Raw([]byte(analysisMagic))
	AppendAnalysis(&e, id, an)
	return e.Seal(), nil
}

// AnalysisLen is the exact number of bytes AppendAnalysis(e, id, an)
// appends, so an encoder embedding the body can size its buffer once.
func AnalysisLen(id string, an *Analysis) int {
	n := 4 + wire.StrLen(id) + wire.StrLen(an.Workload) + wire.StrLen(an.Platform) + 7*8
	n += 4 + 4
	for i := range an.Groups {
		g := &an.Groups[i]
		n += minGroupLen + len(g.Label) + 8*len(g.Allocs)
	}
	n += 4 + 4 + 4
	for i := range an.Configs {
		c := &an.Configs[i]
		n += minConfigLen + 8*len(c.Groups) + len(c.Label) + 8*len(c.Times)
	}
	return n
}

// AppendAnalysis appends the unsealed analysis body: the codec version,
// the identifier, then every field. EncodeAnalysis wraps it in magic
// and seal; the shard journal embeds it inline under its own record
// seal, so a journaled analysis is written and checksummed once. Each
// slice section is preceded by its element total, letting ReadAnalysis
// carve all groups' (or configs') slices out of one backing array.
// an must be non-nil.
func AppendAnalysis(e *wire.Encoder, id string, an *Analysis) {
	e.U32(AnalysisVersion)
	e.Str(id)

	e.Str(an.Workload)
	e.Str(an.Platform)
	e.I64(int64(an.TotalBytes))
	e.I64(int64(an.Threads))
	e.I64(int64(an.Runs))
	e.F64(float64(an.BaselineTime))
	e.I64(int64(an.FilteredAllocs))
	e.I64(int64(an.TotalAllocs))
	e.I64(int64(an.SampleCount))

	var allocs int
	for i := range an.Groups {
		allocs += len(an.Groups[i].Allocs)
	}
	e.U32(uint32(len(an.Groups)))
	e.U32(uint32(allocs))
	for i := range an.Groups {
		g := &an.Groups[i]
		e.I64(int64(g.Index))
		e.Str(g.Label)
		e.Bool(g.Rest)
		e.U32(uint32(len(g.Allocs)))
		for _, id := range g.Allocs {
			e.U64(uint64(id))
		}
		e.I64(int64(g.SimBytes))
		e.F64(g.Frac)
		e.F64(g.Density)
		e.F64(g.SoloSpeedup)
	}

	var members, times int
	for i := range an.Configs {
		members += len(an.Configs[i].Groups)
		times += len(an.Configs[i].Times)
	}
	e.U32(uint32(len(an.Configs)))
	e.U32(uint32(members))
	e.U32(uint32(times))
	for i := range an.Configs {
		c := &an.Configs[i]
		e.U32(c.Mask)
		e.U32(uint32(len(c.Groups)))
		for _, gi := range c.Groups {
			e.I64(int64(gi))
		}
		e.Str(c.Label)
		e.I64(int64(c.HBMBytes))
		e.F64(c.HBMFrac)
		e.F64(c.SampleFrac)
		e.U32(uint32(len(c.Times)))
		for _, t := range c.Times {
			e.F64(float64(t))
		}
		e.F64(float64(c.MeanTime))
		e.F64(c.Speedup)
		e.F64(c.SpeedupCI)
		e.F64(c.EstSpeedup)
		e.Bool(c.Feasible)
	}
}

// DecodeAnalysis decodes an encoded analysis, validating magic, seal
// and version, and returns it together with the embedded key ID. It
// fails on trailing garbage: an entry holds exactly one analysis.
func DecodeAnalysis(raw []byte) (*Analysis, string, error) {
	if len(raw) < len(analysisMagic)+4+wire.SealLen {
		return nil, "", fmt.Errorf("core: analysis truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(analysisMagic)]) != analysisMagic {
		return nil, "", fmt.Errorf("core: bad analysis magic %q", raw[:len(analysisMagic)])
	}
	payload, err := wire.CheckSeal(raw)
	if err != nil {
		return nil, "", fmt.Errorf("core: analysis: %w", err)
	}
	d := wire.NewDecoder(payload[len(analysisMagic):])
	an, id, err := ReadAnalysis(d)
	if err != nil {
		return nil, "", err
	}
	if d.Len() != 0 {
		return nil, "", fmt.Errorf("core: %d trailing bytes after analysis", d.Len())
	}
	return an, id, nil
}

// ReadAnalysis consumes one analysis body written by AppendAnalysis and
// returns it with its identifier. The caller owns the seal and any
// trailing-bytes check. The header and groups are read field by field;
// the config section — 2^k entries, most of the body — is parsed
// straight from the decoder's remaining bytes by readConfigs. Every
// group's Allocs, every config's Groups and every config's Times are
// carved out of one backing array per kind, and the config labels share
// one string; zero-length slices decode as nil.
func ReadAnalysis(d *wire.Decoder) (*Analysis, string, error) {
	if v := d.U32(); v != AnalysisVersion {
		if err := d.Err(); err != nil {
			return nil, "", err
		}
		return nil, "", fmt.Errorf("core: analysis codec version %d, this build reads %d", v, AnalysisVersion)
	}
	id := d.Str()

	an := &Analysis{}
	an.Workload = d.Str()
	an.Platform = d.Str()
	an.TotalBytes = units.Bytes(d.I64())
	an.Threads = int(d.I64())
	an.Runs = int(d.I64())
	an.BaselineTime = units.Duration(d.F64())
	an.FilteredAllocs = int(d.I64())
	an.TotalAllocs = int(d.I64())
	an.SampleCount = int(d.I64())

	nGroups, nAllocs := d.U32(), d.U32()
	if err := d.Fits(uint64(nGroups), minGroupLen); err != nil {
		return nil, "", err
	}
	if err := d.Fits(uint64(nAllocs), 8); err != nil {
		return nil, "", err
	}
	allocs := carver[shim.AllocID]{buf: make([]shim.AllocID, nAllocs)}
	if nGroups > 0 {
		an.Groups = make([]Group, nGroups)
	}
	for i := range an.Groups {
		g := &an.Groups[i]
		g.Index = int(d.I64())
		g.Label = d.Str()
		g.Rest = d.Bool()
		var err error
		if g.Allocs, err = allocs.next(d.U32()); err != nil {
			return nil, "", err
		}
		for j := range g.Allocs {
			g.Allocs[j] = shim.AllocID(d.U64())
		}
		g.SimBytes = units.Bytes(d.I64())
		g.Frac = d.F64()
		g.Density = d.F64()
		g.SoloSpeedup = d.F64()
	}
	if err := allocs.done(); err != nil {
		return nil, "", err
	}

	nConfigs, nMembers, nTimes := d.U32(), d.U32(), d.U32()
	if err := d.Fits(uint64(nConfigs), minConfigLen); err != nil {
		return nil, "", err
	}
	if err := d.Fits(uint64(nMembers)+uint64(nTimes), 8); err != nil {
		return nil, "", err
	}
	if nConfigs > 0 {
		an.Configs = make([]Config, nConfigs)
	}
	n, err := readConfigs(d.Rest(), an.Configs, int(nMembers), int(nTimes))
	if err != nil {
		return nil, "", err
	}
	d.Skip(n)

	if err := d.Err(); err != nil {
		return nil, "", err
	}
	return an, id, nil
}

// readConfigs parses the config entries (the section after its count
// and totals) straight from b into cs and returns the bytes consumed. A
// config is four runs of fixed-width fields, each closed by a length
// that sizes the next, so it costs four length checks rather than one
// bounds-checked Decoder call per field:
//
//	Mask u32, len(Groups) u32
//	Groups i64 × n, len(Label) u32
//	Label, HBMBytes i64, HBMFrac f64, SampleFrac f64, len(Times) u32
//	Times f64 × n, MeanTime, Speedup, SpeedupCI, EstSpeedup f64, Feasible bool
//
// It accepts exactly the inputs field-by-field Decoder reads would and
// decodes the same values (the differential fuzz target checks both).
// Every config's Groups and Times are carved out of one backing array
// per kind, and every label is a substring of one shared string.
func readConfigs(b []byte, cs []Config, nMembers, nTimes int) (int, error) {
	members := carver[int]{buf: make([]int, nMembers)}
	times := carver[units.Duration]{buf: make([]units.Duration, nTimes)}
	// Every config label is copied into one buffer and handed out as a
	// substring of it: a Builder never rewrites bytes it has written, so
	// each substring stays valid as later labels are appended. The hint
	// covers the pipeline's labels ("[0 1 2]" is 2·members+1 bytes), so
	// they normally share one allocation; the buffer holds label bytes
	// only and pins nothing else of the payload.
	var labels strings.Builder
	labels.Grow(2 * (len(cs) + nMembers))
	le := binary.LittleEndian
	p := b
	for i := range cs {
		c := &cs[i]
		if len(p) < 8 {
			return 0, configTruncated(i)
		}
		c.Mask = le.Uint32(p)
		ng := le.Uint32(p[4:])
		p = p[8:]
		if uint64(len(p)) < 8*uint64(ng)+4 {
			return 0, configTruncated(i)
		}
		var err error
		if c.Groups, err = members.next(ng); err != nil {
			return 0, err
		}
		for j := range c.Groups {
			c.Groups[j] = int(int64(le.Uint64(p[8*j:])))
		}
		p = p[8*int(ng):]
		nl := le.Uint32(p)
		p = p[4:]
		if uint64(len(p)) < uint64(nl)+3*8+4 {
			return 0, configTruncated(i)
		}
		start := labels.Len()
		labels.Write(p[:nl])
		c.Label = labels.String()[start:]
		p = p[nl:]
		c.HBMBytes = units.Bytes(int64(le.Uint64(p)))
		c.HBMFrac = math.Float64frombits(le.Uint64(p[8:]))
		c.SampleFrac = math.Float64frombits(le.Uint64(p[16:]))
		nt := le.Uint32(p[24:])
		p = p[28:]
		if uint64(len(p)) < 8*uint64(nt)+4*8+1 {
			return 0, configTruncated(i)
		}
		if c.Times, err = times.next(nt); err != nil {
			return 0, err
		}
		for j := range c.Times {
			c.Times[j] = units.Duration(math.Float64frombits(le.Uint64(p[8*j:])))
		}
		p = p[8*int(nt):]
		c.MeanTime = units.Duration(math.Float64frombits(le.Uint64(p)))
		c.Speedup = math.Float64frombits(le.Uint64(p[8:]))
		c.SpeedupCI = math.Float64frombits(le.Uint64(p[16:]))
		c.EstSpeedup = math.Float64frombits(le.Uint64(p[24:]))
		switch p[32] {
		case 0:
		case 1:
			c.Feasible = true
		default:
			return 0, fmt.Errorf("core: analysis config %d: invalid bool byte %#x", i, p[32])
		}
		p = p[33:]
	}
	if err := members.done(); err != nil {
		return 0, err
	}
	if err := times.done(); err != nil {
		return 0, err
	}
	return len(b) - len(p), nil
}

func configTruncated(i int) error {
	return fmt.Errorf("core: analysis config %d truncated", i)
}

// carver hands out consecutive sub-slices of one backing array, each
// capped at its own length so an append to one cannot overwrite the
// next. The encoded per-element counts must add up to the declared
// total exactly.
type carver[T any] struct {
	buf []T
	off int
}

// next returns the next n elements, or nil when n is 0.
func (c *carver[T]) next(n uint32) ([]T, error) {
	if uint64(n) > uint64(len(c.buf)-c.off) {
		return nil, fmt.Errorf("core: analysis slice of %d elements overruns its declared total %d", n, len(c.buf))
	}
	if n == 0 {
		return nil, nil
	}
	s := c.buf[c.off : c.off+int(n) : c.off+int(n)]
	c.off += int(n)
	return s, nil
}

// done fails unless every element of the backing array was handed out.
func (c *carver[T]) done() error {
	if c.off != len(c.buf) {
		return fmt.Errorf("core: analysis declares %d slice elements but uses %d", len(c.buf), c.off)
	}
	return nil
}
