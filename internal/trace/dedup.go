package trace

import (
	"hash/fnv"

	"hmpt/internal/wire"
)

// This file implements the phase deduplication of the trace pipeline.
// Iterative kernels (the NPB solvers, k-Wave) emit the same handful of
// phase shapes once per timestep: the recorder collapses *adjacent*
// identical phases, but a multi-phase loop body (compute_aux,
// compute_rhs, x_solve, ... per iteration) never repeats back to back,
// so the recorded trace grows linearly with the iteration count even
// though it contains only a few distinct shapes.
//
// Canonical folds the trace into its canonical compact form: each
// distinct shape exactly once, in first-appearance order, with Repeat
// carrying its total multiplicity. It is the pipeline's one
// deduplication. Every downstream pass (sweep compilation and costing,
// IBS sampling, snapshot encoding, analysis caching) is linear in the
// phases of the trace it consumes and already scales each phase by
// Times(), so a pipeline fed canonical traces is O(unique phases) end
// to end.
//
// Canonicalisation reorders repeats of a shape next to each other, which
// is sound because every consumer treats phases as an unordered bag of
// (shape, multiplicity): costing is additive over phases, sampling
// derives counts per stream scaled by multiplicity, and liveness is a
// property of allocations, not phase positions. It does change the
// floating-point summation order (and the sampler's fractional-carry
// chain) relative to the raw trace, so canonicalisation happens exactly
// once, at capture (core.executeReference) — everything downstream,
// including the retained bit-exactness oracles, consumes the one
// canonical trace and stays byte-identical across paths.

// phaseHash returns the content hash of a phase's shape: every field
// that affects costing and sampling except the repeat count. Two phases
// with equal hashes are almost certainly the same shape; sameShape is
// the collision-proof equality Canonical confirms with.
func phaseHash(p *Phase) uint64 {
	h := fnv.New64a()
	w := wire.NewHashWriter(h)
	w.Str(p.Name)
	w.I64(int64(p.Threads))
	w.F64(float64(p.Flops))
	w.F64(p.VectorFrac)
	w.F64(p.FlopEff)
	w.U64(uint64(len(p.Streams)))
	for i := range p.Streams {
		s := &p.Streams[i]
		w.U64(uint64(s.Alloc))
		w.I64(int64(s.Bytes))
		w.U64(uint64(s.Kind))
		w.U64(uint64(s.Pattern))
		w.I64(int64(s.WorkingSet))
		w.F64(s.MLP)
	}
	return h.Sum64()
}

// sameShape reports whether two phases are the same shape: equal in
// every field that affects costing and sampling, ignoring only the
// repeat count.
func sameShape(a, b *Phase) bool {
	if a.Name != b.Name || a.Threads != b.Threads || a.Flops != b.Flops ||
		a.VectorFrac != b.VectorFrac || a.FlopEff != b.FlopEff ||
		len(a.Streams) != len(b.Streams) {
		return false
	}
	for i := range a.Streams {
		if a.Streams[i] != b.Streams[i] {
			return false
		}
	}
	return true
}

// Canonical returns the canonical compact form of the trace: each
// distinct phase shape exactly once, in first-appearance order, with
// Repeat carrying its total multiplicity (the sum of Times over the
// phases of that shape). Shapes are looked up by phaseHash and confirmed
// by sameShape, so a hash collision can never merge two shapes. The
// result owns all of its slices. Canonical is idempotent — the
// canonical form of a canonical trace is itself — and exactly preserves
// TotalBytes (integer arithmetic) and the multiset of (shape,
// multiplicity) pairs.
func (t *Trace) Canonical() *Trace {
	out := &Trace{Phases: []Phase{}}
	byHash := make(map[uint64][]int32, len(t.Phases))
next:
	for i := range t.Phases {
		p := &t.Phases[i]
		h := phaseHash(p)
		for _, j := range byHash[h] {
			if q := &out.Phases[j]; sameShape(q, p) {
				q.Repeat += p.Times()
				continue next
			}
		}
		byHash[h] = append(byHash[h], int32(len(out.Phases)))
		shape := *p
		shape.Repeat = p.Times()
		shape.Streams = append([]Stream(nil), p.Streams...)
		out.Phases = append(out.Phases, shape)
	}
	return out
}
