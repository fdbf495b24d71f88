// Package trace defines the memory-access phase trace through which
// workloads describe their behaviour to the cost engine and to the IBS
// sampler.
//
// A workload's execution is a sequence of phases; each phase moves bytes
// between the cores and a set of allocations (streams) and performs
// floating-point work. The trace is the simulator's analogue of what the
// paper observes with hardware counters: DRAM traffic per address range,
// access patterns, and instruction mix. Workloads execute their real
// kernels and emit the corresponding phases, so traffic volumes come from
// the actual algorithm, not hand-waving.
package trace

import (
	"fmt"
	"sync"

	"hmpt/internal/shim"
	"hmpt/internal/units"
)

// Pattern classifies the address pattern of a stream; it selects the
// memory-level-parallelism model in the cost engine.
type Pattern int

const (
	// Sequential is a linear sweep; hardware prefetchers keep many lines
	// in flight and latency is fully hidden.
	Sequential Pattern = iota
	// Stencil is a near-neighbour sweep (multiple offset sequential
	// streams); slightly lower effective prefetch depth.
	Stencil
	// Random is independent random accesses at known addresses — the
	// "random indirect sum" case of Fig. 4; MLP is bounded by the
	// out-of-order window, not by prefetchers.
	Random
	// Chase is a dependent pointer chase: exactly one access in flight.
	Chase
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "seq"
	case Stencil:
		return "stencil"
	case Random:
		return "random"
	case Chase:
		return "chase"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Kind is the direction of a stream.
type Kind int

const (
	// Read moves Bytes from memory to the cores.
	Read Kind = iota
	// Write moves Bytes from the cores to memory (with write-allocate
	// cost on pools that require it).
	Write
	// Update reads and writes the same Bytes (read-modify-write sweep).
	Update
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Update:
		return "RW"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Stream is one logical access stream of a phase: Bytes of traffic of the
// given Kind and Pattern into a single allocation.
//
// Bytes is the post-cache traffic the stream generates at simulated
// scale: workloads that reuse data within caches report only the traffic
// that reaches memory, as a hardware DRAM counter would. For Random and
// Chase patterns, WorkingSet (simulated bytes, defaults to the whole
// allocation) engages the cache-hierarchy model so that small windows are
// served by L1/L2/L3 — this is what produces Fig. 3.
type Stream struct {
	Alloc      shim.AllocID
	Bytes      units.Bytes
	Kind       Kind
	Pattern    Pattern
	WorkingSet units.Bytes // 0 = whole allocation (Random/Chase only)
	MLP        float64     // 0 = pattern default
}

// Phase is one timed step of the workload. Streams proceed concurrently
// within the phase; phases execute back to back, Repeat times.
type Phase struct {
	Name    string
	Threads int         // active threads; 0 = environment default
	Flops   units.Flops // floating-point work at simulated scale
	// VectorFrac is the fraction of flops issued through the vector FMA
	// pipes (the rest is scalar); it selects the compute ceiling.
	VectorFrac float64
	// FlopEff derates the compute ceiling for non-FMA mixes, dependency
	// chains, etc. 0 means the engine default.
	FlopEff float64
	Streams []Stream
	Repeat  int64 // 0 or 1 = once
}

// Times returns the phase repeat count, at least 1.
func (p *Phase) Times() int64 {
	if p.Repeat <= 0 {
		return 1
	}
	return p.Repeat
}

// TotalBytes returns the phase's total traffic (reads + writes, Update
// counted twice) for a single repeat.
func (p *Phase) TotalBytes() units.Bytes {
	var b units.Bytes
	for _, s := range p.Streams {
		if s.Kind == Update {
			b += 2 * s.Bytes
		} else {
			b += s.Bytes
		}
	}
	return b
}

// Trace is the recorded phase sequence of one workload run.
type Trace struct {
	Phases []Phase
}

// TotalBytes returns total traffic across all phases and repeats.
func (t *Trace) TotalBytes() units.Bytes {
	var b units.Bytes
	for i := range t.Phases {
		b += t.Phases[i].TotalBytes() * units.Bytes(t.Phases[i].Times())
	}
	return b
}

// TotalFlops returns total floating-point work across all phases.
func (t *Trace) TotalFlops() units.Flops {
	var f units.Flops
	for i := range t.Phases {
		f += t.Phases[i].Flops * units.Flops(t.Phases[i].Times())
	}
	return f
}

// BytesByAlloc aggregates traffic per allocation across the whole trace.
func (t *Trace) BytesByAlloc() map[shim.AllocID]units.Bytes {
	out := make(map[shim.AllocID]units.Bytes)
	for i := range t.Phases {
		times := units.Bytes(t.Phases[i].Times())
		for _, s := range t.Phases[i].Streams {
			b := s.Bytes
			if s.Kind == Update {
				b *= 2
			}
			out[s.Alloc] += b * times
		}
	}
	return out
}

// Recorder collects phases from a (possibly concurrent) workload run.
type Recorder struct {
	mu     sync.Mutex
	phases []Phase
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit appends one phase to the trace. If the phase is identical in
// shape to the previous one (same name, threads, flops, streams), the
// previous phase's Repeat is incremented instead, which keeps iterative
// solvers' traces compact.
func (r *Recorder) Emit(p Phase) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.phases); n > 0 && sameShape(&r.phases[n-1], &p) {
		r.phases[n-1].Repeat = r.phases[n-1].Times() + p.Times()
		return
	}
	r.phases = append(r.phases, p)
}

// Trace returns the recorded trace. The recorder may be reused; the
// returned trace is a snapshot.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Trace{Phases: make([]Phase, len(r.phases))}
	copy(out.Phases, r.phases)
	return out
}

// Reset discards all recorded phases.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phases = r.phases[:0]
}

// Len returns the number of distinct recorded phases.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.phases)
}
