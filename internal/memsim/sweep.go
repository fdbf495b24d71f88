package memsim

import (
	"fmt"
	"math"
	"unsafe"

	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/xrand"
)

// EngineVersion identifies the costing discipline of the machine model
// and the sweep engine (cost-component math, float evaluation order,
// noise replay). It participates in analysis-cache keys so that
// analyses computed under an older discipline are never resurrected
// into a newer engine. Bump it whenever costPhase, CompileSweep, or
// NoisyTime change observable arithmetic.
const EngineVersion = 1

// SweepEvaluator is the compiled form of one (trace, group partition)
// pair: the preallocated, allocation-free engine behind the tuner's
// exhaustive 2^|AG| configuration sweep and its impact probes.
//
// Compilation makes one entry per trace phase: for every (phase,
// stream, pool) triple, the three contributions costPhase would derive
// for that stream if its allocation lived in that pool — the two
// per-thread concurrency addends (read and write) and the pool-bus
// occupancy addend — plus the phase's repeat multiplier. Evaluating a
// placement then selects one pool column per stream and re-runs the
// identical additions (no map lookups, no per-stream split slices, no
// cache-profile recomputation). The traces the pipeline compiles are
// canonical (trace.Canonical: each distinct phase shape once, its
// multiplicity in Repeat), so the sweep is O(unique phases); a raw
// trace compiles and evaluates every phase it carries.
//
// Bit-exactness contract: for any whole-group pool assignment, Eval* and
// Flip return exactly the Duration Machine.Cost computes for the
// equivalent SimplePlacement (rng == nil) — on any trace. This holds
// because every floating-point operation of the phase walk is performed
// in the same order on the same values as costPhase, per-phase
// contributions are accumulated in trace order exactly as Cost
// accumulates RunResult.Time, and the incremental Gray-code step (Flip)
// re-evaluates whole phases: a phase's cost is a pure function of the
// pools of the groups it touches, so phases untouched by a flip keep
// bitwise-identical cached values and touched phases are recomputed by
// the same full stream-order walk a fresh evaluation would use. The
// equivalence is asserted per-mask by TestSweepMatchesCost and
// end-to-end by the core equivalence tests.
//
// The evaluator carries mutable per-instance state (current assignment
// and cached per-phase contributions) and is NOT safe for concurrent
// use; Clone shares the compiled read-only tables and gives each worker
// its own state, which is how the tuner fans the sweep and its probe
// stage out over internal/parallel workers.
type SweepEvaluator struct {
	m       *Machine
	nPools  int
	defPool PoolID
	phases  []sweepPhase
	// byGroup lists, in trace order, the phases whose cost depends on
	// each group — what a Flip must re-evaluate.
	byGroup [][]int32

	// Mutable evaluation state.
	pools   []PoolID         // current pool per group
	contrib []units.Duration // cached per-phase time × repeats
	effBus  []float64        // per-pool bus-seconds scratch
}

// sweepPhase is one compiled trace phase: per-term contribution columns
// plus the placement-independent compute ceiling and repeat multiplier.
type sweepPhase struct {
	// group[t] is the owning group of term t; -1 pins the term's
	// allocation to the default pool.
	group []int32
	// concR/concW/bus hold the per-pool addends of term t at
	// [t*nPools+pool]: the read and write concurrency-seconds terms and
	// the effective bus bytes term of costPhase.
	concR []float64
	concW []float64
	bus   []float64
	// cpuTime is the phase's compute-ceiling time (mask independent).
	cpuTime units.Duration
	// reps is the phase's repeat count as the Duration multiplier Cost
	// applies when accumulating the trace total.
	reps units.Duration
}

// CompileSweep compiles the trace against a partition of allocations
// into groups for repeated placement evaluation. groups[i] lists the
// allocations of group i; an allocation may appear in at most one group,
// and allocations outside every group are pinned to defPool. defThreads
// matches the Cost parameter of the same name. The returned evaluator
// starts with every group assigned to defPool.
func (m *Machine) CompileSweep(tr *trace.Trace, defThreads int, groups [][]shim.AllocID, defPool PoolID) (*SweepEvaluator, error) {
	if tr == nil {
		return nil, fmt.Errorf("memsim: nil trace")
	}
	nPools := len(m.P.Pools)
	if int(defPool) < 0 || int(defPool) >= nPools {
		return nil, fmt.Errorf("memsim: default pool %d out of range [0,%d)", defPool, nPools)
	}
	groupOf := make(map[shim.AllocID]int32, len(groups))
	for gi, ids := range groups {
		for _, id := range ids {
			if prev, ok := groupOf[id]; ok {
				return nil, fmt.Errorf("memsim: allocation %d in groups %d and %d", id, prev, gi)
			}
			groupOf[id] = int32(gi)
		}
	}

	e := &SweepEvaluator{
		m:       m,
		nPools:  nPools,
		defPool: defPool,
		phases:  make([]sweepPhase, len(tr.Phases)),
		byGroup: make([][]int32, len(groups)),
		pools:   make([]PoolID, len(groups)),
		contrib: make([]units.Duration, len(tr.Phases)),
		effBus:  make([]float64, nPools),
	}
	for gi := range e.pools {
		e.pools[gi] = defPool
	}
	for pi := range tr.Phases {
		sp, err := m.compilePhase(&tr.Phases[pi], pi, defThreads, groupOf, nPools)
		if err != nil {
			return nil, err
		}
		e.phases[pi] = sp
		for _, g := range sp.group {
			if g < 0 {
				continue
			}
			// Phases compile in trace order, so the list already ends in
			// pi when an earlier stream of this phase added it.
			if n := len(e.byGroup[g]); n == 0 || e.byGroup[g][n-1] != int32(pi) {
				e.byGroup[g] = append(e.byGroup[g], int32(pi))
			}
		}
	}

	// Initial evaluation under the all-default assignment.
	e.evalAll()
	return e, nil
}

// compilePhase precompiles the per-(stream, pool) contribution columns
// of one phase — the identical arithmetic, in the identical order,
// costPhase performs for it. pi is the phase's trace position, used for
// error attribution only.
func (m *Machine) compilePhase(ph *trace.Phase, pi, defThreads int, groupOf map[shim.AllocID]int32, nPools int) (sweepPhase, error) {
	sp := sweepPhase{reps: units.Duration(ph.Times())}
	threads := ph.Threads
	if threads <= 0 {
		threads = defThreads
	}
	if threads <= 0 || threads > m.P.Cores() {
		threads = m.P.Cores()
	}

	for si := range ph.Streams {
		s := &ph.Streams[si]
		if s.Bytes < 0 {
			return sweepPhase{}, fmt.Errorf("memsim: phase %d (%s): stream %d has negative bytes", pi, ph.Name, si)
		}
		if s.Bytes == 0 {
			continue
		}
		var readB, writeB float64
		switch s.Kind {
		case trace.Read:
			readB = float64(s.Bytes)
		case trace.Write:
			writeB = float64(s.Bytes)
		case trace.Update:
			readB = float64(s.Bytes)
			writeB = float64(s.Bytes)
		default:
			return sweepPhase{}, fmt.Errorf("memsim: phase %d (%s): stream %d has unknown kind %v", pi, ph.Name, si, s.Kind)
		}
		gi := int32(-1)
		if g, ok := groupOf[s.Alloc]; ok {
			gi = g
		}
		mlp := m.mlpFor(s)
		cached := s.Pattern == trace.Random || s.Pattern == trace.Chase
		sp.group = append(sp.group, gi)
		for pid := 0; pid < nPools; pid++ {
			prof := AccessProfile{AvgLatency: m.P.Pools[pid].Latency, MemFrac: 1}
			if cached {
				prof = m.P.AccessProfileFor(PoolID(pid), s.WorkingSet)
			}
			lineSec := prof.AvgLatency.Seconds() / (float64(threads) * 64)
			concR := readB * lineSec / mlp
			concW := writeB * lineSec / (mlp * writeMLPFactor)
			memR := readB * prof.MemFrac
			memW := writeB * prof.MemFrac
			bus := memR + m.P.Pools[pid].WriteCost*memW
			if !finite(concR) || !finite(concW) || !finite(bus) {
				return sweepPhase{}, fmt.Errorf("memsim: phase %d (%s): stream %d cost is not finite in pool %s",
					pi, ph.Name, si, m.P.Pools[pid].Name)
			}
			sp.concR = append(sp.concR, concR)
			sp.concW = append(sp.concW, concW)
			sp.bus = append(sp.bus, bus)
		}
	}
	if ph.Flops > 0 {
		vf := ph.VectorFrac
		if vf < 0 {
			vf = 0
		} else if vf > 1 {
			vf = 1
		}
		eff := ph.FlopEff
		if eff <= 0 {
			eff = m.P.FlopEff
		}
		peakG := float64(threads) * m.P.ClockGHz * (vf*m.P.VecFlopsPerCycle + (1-vf)*m.P.ScalarFlopsPerCycle)
		sp.cpuTime = units.FlopRate(peakG * 1e9 * eff).Time(ph.Flops)
		if !finite(float64(sp.cpuTime)) {
			return sweepPhase{}, fmt.Errorf("memsim: phase %d (%s): compute ceiling is not finite", pi, ph.Name)
		}
	}
	return sp, nil
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// NumGroups returns the number of groups in the compiled partition.
func (e *SweepEvaluator) NumGroups() int { return len(e.pools) }

// HeapBytes estimates the heap the evaluator holds — its compiled
// per-phase columns, per-group phase lists and evaluation state, by
// slice capacity — for stores that charge what they retain.
func (e *SweepEvaluator) HeapBytes() int64 {
	n := int(unsafe.Sizeof(*e)) + int(unsafe.Sizeof(sweepPhase{}))*cap(e.phases) +
		int(unsafe.Sizeof([]int32(nil)))*cap(e.byGroup) + int(unsafe.Sizeof(PoolID(0)))*cap(e.pools) +
		8*cap(e.contrib) + 8*cap(e.effBus)
	for i := range e.phases {
		p := &e.phases[i]
		n += 4*cap(p.group) + 8*(cap(p.concR)+cap(p.concW)+cap(p.bus))
	}
	for _, b := range e.byGroup {
		n += 4 * cap(b)
	}
	return int64(n)
}

// Clone returns an evaluator sharing the compiled read-only tables but
// carrying private evaluation state (initialised to e's current
// assignment), for use by a concurrent sweep worker.
func (e *SweepEvaluator) Clone() *SweepEvaluator {
	c := *e
	c.pools = append([]PoolID(nil), e.pools...)
	c.contrib = append([]units.Duration(nil), e.contrib...)
	c.effBus = make([]float64, e.nPools)
	return &c
}

// evalPhase recomputes one phase under the current assignment: the
// stream-order walk of costPhase with precompiled addends, scaled by
// the phase's repeats.
func (e *SweepEvaluator) evalPhase(pi int) units.Duration {
	sp := &e.phases[pi]
	np := e.nPools
	eb := e.effBus
	for p := range eb {
		eb[p] = 0
	}
	var concSec float64
	for t, g := range sp.group {
		pid := e.defPool
		if g >= 0 {
			pid = e.pools[g]
		}
		idx := t*np + int(pid)
		concSec += sp.concR[idx]
		concSec += sp.concW[idx]
		eb[pid] += sp.bus[idx]
	}
	var memTime units.Duration
	for pid := 0; pid < np; pid++ {
		if t := e.m.P.Pools[pid].BusBW.Time(units.Bytes(eb[pid])); t > memTime {
			memTime = t
		}
	}
	total := memTime
	if concTime := units.Duration(concSec); concTime > total {
		total = concTime
	}
	if sp.cpuTime > total {
		total = sp.cpuTime
	}
	return total * sp.reps
}

// total accumulates the cached per-phase contributions in trace order
// — the same addition sequence Cost uses for RunResult.Time.
func (e *SweepEvaluator) total() units.Duration {
	var t units.Duration
	for i := range e.contrib {
		t += e.contrib[i]
	}
	return t
}

// evalAll recomputes every phase under the current assignment.
func (e *SweepEvaluator) evalAll() units.Duration {
	for pi := range e.phases {
		e.contrib[pi] = e.evalPhase(pi)
	}
	return e.total()
}

// EvalMask assigns pool `on` to every group whose bit is set in mask and
// `off` to the rest, then returns the deterministic trace time. It fully
// re-evaluates every phase, resetting the incremental state.
func (e *SweepEvaluator) EvalMask(mask uint32, off, on PoolID) units.Duration {
	for g := range e.pools {
		if mask&(1<<uint(g)) != 0 {
			e.pools[g] = on
		} else {
			e.pools[g] = off
		}
	}
	return e.evalAll()
}

// EvalGroups assigns pool `on` to the listed groups and `off` to all
// others, then returns the deterministic trace time. Unlike EvalMask it
// is not limited to 32 groups, which the tuner's probe stage needs (one
// group per unfiltered allocation site).
func (e *SweepEvaluator) EvalGroups(on []int, offPool, onPool PoolID) units.Duration {
	for g := range e.pools {
		e.pools[g] = offPool
	}
	for _, g := range on {
		e.pools[g] = onPool
	}
	return e.evalAll()
}

// Flip moves group g to pool `to` and incrementally re-evaluates only
// the phases that group touches — the Gray-code step of the sweep. The
// result is bit-identical to a full evaluation of the new assignment.
func (e *SweepEvaluator) Flip(g int, to PoolID) units.Duration {
	e.pools[g] = to
	for _, pi := range e.byGroup[g] {
		e.contrib[pi] = e.evalPhase(int(pi))
	}
	return e.total()
}

// NoisyTime applies the multiplicative run-to-run measurement noise Cost
// applies to a deterministic trace time, drawing from rng exactly as
// Cost does. Replaying n draws against one precomputed deterministic
// time reproduces n Cost calls bit-identically at none of the cost.
func (m *Machine) NoisyTime(det units.Duration, rng *xrand.Rand) units.Duration {
	if rng != nil && m.Noise > 0 {
		n := rng.NormFloat64()
		if n > 3 {
			n = 3
		} else if n < -3 {
			n = -3
		}
		det *= units.Duration(1 + m.Noise*n)
	}
	return det
}
