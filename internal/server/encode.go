package server

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The two run-serving responses, AnalyzeResponse and CampaignResponse,
// are encoded without reflection: an append encoder writes them into
// one pre-sized []byte, which the handler sends with a single Write. The
// bytes are exactly those of a json.Encoder with SetIndent("", "  ")
// and its default HTML escaping, which FuzzResponseEncoding checks
// against encoding/json itself:
//
//   - fields in declaration order, omitempty fields left out when zero;
//   - two-space indentation, `": "` after keys, `[]` for an empty cell
//     list and `null` for a nil one;
//   - strings escaped as encoding/json escapes them: `<`, `>` and `&` as
//     \u003c, \u003e and \u0026, control bytes as \b \f \n \r \t or
//     \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029 as \u2028 and
//     \u2029;
//   - floats in the shortest form that round-trips, with 'e' notation
//     below 1e-6 and from 1e21 on, and a single-digit negative exponent
//     written without its leading zero (1e-7, not 1e-07);
//   - a trailing newline.
//
// A NaN or infinite float cannot be encoded: the encoder reports an
// error and the handler answers 500 encode_failed instead.
//
// The rarely called endpoints (/v1/workloads, /readyz) and error bodies
// stay on encoding/json.

// encodeAnalyzeResponse returns r's JSON encoding.
func encodeAnalyzeResponse(r *AnalyzeResponse) ([]byte, error) {
	e := jsonEncoder{buf: make([]byte, 0, countersSizeHint+cellSizeHint(&r.Result))}
	e.open('{')
	e.key("result")
	e.cell(&r.Result)
	e.key("counters")
	e.counters(&r.Counters)
	e.close('}')
	return e.finish()
}

// encodeCampaignResponse returns r's JSON encoding.
func encodeCampaignResponse(r *CampaignResponse) ([]byte, error) {
	n := countersSizeHint
	for i := range r.Cells {
		n += cellSizeHint(&r.Cells[i])
	}
	e := jsonEncoder{buf: make([]byte, 0, n)}
	e.open('{')
	e.key("cells")
	if r.Cells == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.open('[')
		for i := range r.Cells {
			e.elem()
			e.cell(&r.Cells[i])
		}
		e.close(']')
	}
	e.key("counters")
	e.counters(&r.Counters)
	e.close('}')
	return e.finish()
}

// countersSizeHint bounds the encoded counters from above (sixteen
// members of at most 60 bytes each, braces and the "work" key), so a
// response is encoded into one allocation.
const countersSizeHint = 1024

// cellSizeHint bounds a cell's encoding from above: 640 bytes of keys,
// numbers and indentation, plus its strings, which escaping grows at
// most sixfold.
func cellSizeHint(c *CellResult) int {
	return 640 + 6*(len(c.Workload)+len(c.Platform)+len(c.Variant)+len(c.Error)+len(c.BestConfig))
}

// jsonEncoder appends indented JSON to buf. first marks that the next
// member is the first of its object or array; depth is the indentation
// level of the members being written.
type jsonEncoder struct {
	buf   []byte
	depth int
	first bool
	err   error
}

func (e *jsonEncoder) finish() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return append(e.buf, '\n'), nil
}

func (e *jsonEncoder) newline() {
	e.buf = append(e.buf, '\n')
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

func (e *jsonEncoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.first = true
}

// close ends an object or array; an empty one stays on its line.
func (e *jsonEncoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.first = false
	e.buf = append(e.buf, c)
}

// elem starts the next array element.
func (e *jsonEncoder) elem() {
	if !e.first {
		e.buf = append(e.buf, ',')
	}
	e.first = false
	e.newline()
}

// key starts the next object member; name needs no escaping.
func (e *jsonEncoder) key(name string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':', ' ')
}

func (e *jsonEncoder) str(name, v string) {
	e.key(name)
	e.buf = appendJSONString(e.buf, v)
}

func (e *jsonEncoder) int(name string, v int64) {
	e.key(name)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

func (e *jsonEncoder) bool(name string, v bool) {
	e.key(name)
	e.buf = strconv.AppendBool(e.buf, v)
}

func (e *jsonEncoder) float(name string, v float64) {
	e.key(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value %s in %s", strconv.FormatFloat(v, 'g', -1, 64), name)
		}
		return
	}
	e.buf = appendJSONFloat(e.buf, v)
}

// cell encodes a CellResult; the omitempty fields are skipped at zero.
func (e *jsonEncoder) cell(c *CellResult) {
	e.open('{')
	e.str("workload", c.Workload)
	e.str("platform", c.Platform)
	if c.Variant != "" {
		e.str("variant", c.Variant)
	}
	if c.Error != "" {
		e.str("error", c.Error)
	}
	if c.MaxSpeedup != 0 {
		e.float("max_speedup", c.MaxSpeedup)
	}
	if c.BestConfig != "" {
		e.str("best_config", c.BestConfig)
	}
	if c.HBMOnlySpeedup != 0 {
		e.float("hbm_only_speedup", c.HBMOnlySpeedup)
	}
	if c.NinetyUsage != 0 {
		e.float("ninety_usage", c.NinetyUsage)
	}
	if c.MemoryBytes != 0 {
		e.int("memory_bytes", c.MemoryBytes)
	}
	if c.FilteredAllocs != 0 {
		e.int("filtered_allocs", int64(c.FilteredAllocs))
	}
	if c.BaselineSec != 0 {
		e.float("baseline_seconds", c.BaselineSec)
	}
	if c.SampleCount != 0 {
		e.int("sample_count", int64(c.SampleCount))
	}
	e.bool("analysis_from_cache", c.AnalysisFromCache)
	e.bool("snapshot_from_cache", c.SnapshotFromCache)
	e.bool("derived", c.Derived)
	e.bool("seed_derived", c.SeedDerived)
	e.bool("coalesced", c.Coalesced)
	e.close('}')
}

func (e *jsonEncoder) counters(c *RunCounters) {
	e.open('{')
	e.int("snapshots", int64(c.Snapshots))
	e.int("executions", int64(c.Executions))
	e.int("cache_hits", int64(c.CacheHits))
	e.int("derived", int64(c.Derived))
	e.int("seed_derived", int64(c.SeedDerived))
	e.int("coalesced", int64(c.Coalesced))
	e.int("analysis_hits", int64(c.AnalysisHits))
	e.int("cache_errors", int64(c.CacheErrs))
	e.key("work")
	e.open('{')
	w := &c.Work
	e.int("kernels", w.Kernels)
	e.int("sample_passes", w.SamplePasses)
	e.int("sweep_evaluations", w.SweepEvaluations)
	e.int("count_walks", w.CountWalks)
	e.int("derived", w.Derived)
	e.int("seed_derived", w.SeedDerived)
	e.int("coalesced", w.Coalesced)
	e.int("recovered_panics", w.RecoveredPanics)
	e.close('}')
	e.close('}')
}

// appendJSONFloat appends a finite float as encoding/json writes a
// float64: ES6 number formatting.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string with encoding/json's
// HTML-safe escaping.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
