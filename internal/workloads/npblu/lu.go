// Package npblu implements the NPB Lower-Upper Gauss-Seidel (LU)
// benchmark analysed in Fig. 13: an SSOR pseudo-solver whose symmetric
// sweeps apply lower- and upper-triangular 5×5 block factors built from
// per-plane jacobian workspaces.
//
// Structure follows NPB LU: rsd = frct − A·u (the residual), a forward
// (lower) sweep and a backward (upper) sweep relax the residual with
// block-diagonal inverses, and u += ω·rsd. The operator A is the same
// coupled diffusion used by BT. Tracked allocations (7, Table I): u,
// rsd, frct, qs, rho_i, plus the per-plane jacobian workspaces jac_l and
// jac_u, which scale with the squared grid ratio.
//
// The paper's headline observation for LU — most of its speedup comes
// from a single allocation holding about 25 % of the footprint — emerges
// here because rsd is rewritten by every sweep while frct is only read
// once per iteration.
package npblu

import (
	"fmt"
	"math"

	"hmpt/internal/parallel"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
	"hmpt/internal/workloads/npbcommon"
)

// Solver constants.
const (
	kappa  = 1.0
	eps    = 0.01
	omega  = 1.2 // SSOR relaxation factor
	couple = 0.15
	sigma  = 0.3 // diagonal shift keeping blocks well conditioned
)

// Compute-ceiling calibration (Table II: max 1.27×). The triangular
// sweeps are compute-bound (dependent block applications); the residual
// and update phases are memory-bound.
const (
	vectorFrac   = 0.60
	sweepFlopEff = 0.12
	memFlopEff   = 0.90
)

// Per-point flop estimates.
const (
	rhsFlopsPerPt   = 180
	sweepFlopsPerPt = 480 // jacobian build + block solve per sweep
	addFlopsPerPt   = 12
)

// Config parameterises the LU workload.
type Config struct {
	RealN  int
	PaperN int // lu.D: 408
	Iters  int
}

// DefaultConfig is lu.D at 28³ executed scale.
func DefaultConfig() Config { return Config{RealN: 28, PaperN: 408, Iters: 5} }

// LU is the Lower-Upper Gauss-Seidel workload.
type LU struct {
	Cfg   Config
	g     npbcommon.Grid
	scale float64

	u, rsd, frct *shim.TrackedSlice[float64]
	qs, rhoI     *shim.TrackedSlice[float64]
	jacL, jacU   *shim.TrackedSlice[float64] // per-plane 5×5 blocks

	cmat     npbcommon.Mat5
	dinv     npbcommon.Mat5 // inverse diagonal block (constant-coefficient part)
	env      *workloads.Env
	errNorms []float64
}

// New returns an LU workload with the default configuration.
func New() *LU { return &LU{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("npb.lu", "NPB Lower-Upper Gauss-Seidel (lu.D, 8.65 GB simulated, 7 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (l *LU) Name() string { return "npb.lu" }

// ErrNorms returns the error-norm history (initial first).
func (l *LU) ErrNorms() []float64 { return append([]float64(nil), l.errNorms...) }

// ResidAlloc returns the residual allocation (the paper's single
// high-impact allocation).
func (l *LU) ResidAlloc() shim.AllocID { return l.rsd.ID() }

// Setup implements workloads.Workload.
func (l *LU) Setup(env *workloads.Env) error {
	c := l.Cfg
	if c.RealN < 12 {
		return fmt.Errorf("npblu: RealN %d too small", c.RealN)
	}
	if c.PaperN < c.RealN {
		return fmt.Errorf("npblu: PaperN %d below RealN %d", c.PaperN, c.RealN)
	}
	if c.Iters < 1 {
		return fmt.Errorf("npblu: need at least one iteration")
	}
	l.g = npbcommon.Grid{N: c.RealN}
	r := float64(c.PaperN) / float64(c.RealN)
	l.scale = r * r * r
	scale2 := r * r
	cells := l.g.Cells()
	plane := c.RealN * c.RealN

	l.u = shim.Alloc[float64](env.Alloc, "lu.u", cells*5, l.scale)
	l.rsd = shim.Alloc[float64](env.Alloc, "lu.rsd", cells*5, l.scale)
	l.frct = shim.Alloc[float64](env.Alloc, "lu.frct", cells*5, l.scale)
	l.qs = shim.Alloc[float64](env.Alloc, "lu.qs", cells, l.scale)
	l.rhoI = shim.Alloc[float64](env.Alloc, "lu.rho_i", cells, l.scale)
	// Jacobian workspaces are 2-D (per k-plane) in NPB LU, so they scale
	// with the squared grid ratio.
	l.jacL = shim.Alloc[float64](env.Alloc, "lu.jac_l", plane*25, scale2)
	l.jacU = shim.Alloc[float64](env.Alloc, "lu.jac_u", plane*25, scale2)

	l.cmat = npbcommon.Identity5()
	for rr := 0; rr < 5; rr++ {
		for cc := 0; cc < 5; cc++ {
			if rr != cc {
				l.cmat.Set(rr, cc, couple/4)
			}
		}
	}
	// Diagonal block of A: σI + 6κC (from three −δ² terms).
	diag := npbcommon.AddScaled(&npbcommon.Mat5{}, &l.cmat, 6*kappa)
	for i := 0; i < 5; i++ {
		diag[i*5+i] += sigma
	}
	var err error
	l.dinv, err = diag.Invert()
	if err != nil {
		return fmt.Errorf("npblu: diagonal block: %w", err)
	}

	npbcommon.FillExact(l.g, l.u.Data)
	l.computeAux(l.u.Data)
	l.computeForcing()
	n := float64(c.RealN - 1)
	for k := 1; k < c.RealN-1; k++ {
		for j := 1; j < c.RealN-1; j++ {
			for i := 1; i < c.RealN-1; i++ {
				idx := l.g.Idx(i, j, k) * 5
				for comp := 0; comp < 5; comp++ {
					x, y, z := float64(i)/n, float64(j)/n, float64(k)/n
					l.u.Data[idx+comp] += 0.12 * math.Sin(2*math.Pi*x) * math.Sin(2*math.Pi*y) * math.Sin(3*math.Pi*z)
				}
			}
		}
	}
	l.errNorms = l.errNorms[:0]
	l.env = env
	return nil
}

func (l *LU) computeAux(u []float64) {
	qs, rhoI := l.qs.Data, l.rhoI.Data
	for idx := 0; idx < l.g.Cells(); idx++ {
		base := idx * 5
		inv := 1 / u[base]
		rhoI[idx] = inv
		qs[idx] = 0.5 * (u[base+1]*u[base+1] + u[base+2]*u[base+2] + u[base+3]*u[base+3]) * inv * inv
	}
}

// st builds a stencil stream. Traffic always scales with the cubed grid
// ratio (a sweep touches every plane PaperN times), even for the
// plane-sized jacobian workspaces whose *size* scales quadratically.
func (l *LU) st(a *shim.TrackedSlice[float64], realBytes units.Bytes, kind trace.Kind) trace.Stream {
	return trace.Stream{
		Alloc:   a.ID(),
		Bytes:   units.Bytes(float64(realBytes) * l.scale),
		Kind:    kind,
		Pattern: trace.Stencil,
	}
}

func (l *LU) emit(name string, flopsPerPt, eff float64, pts int, streams []trace.Stream) {
	if l.env == nil {
		return
	}
	l.env.Rec.Emit(trace.Phase{
		Name:       name,
		Threads:    l.env.Threads,
		Flops:      units.Flops(flopsPerPt * float64(pts) * l.scale),
		VectorFrac: vectorFrac,
		FlopEff:    eff,
		Streams:    streams,
	})
}

// applyA evaluates A·u at an interior point: (σI + κC·(−∇²))u + eps·conv.
func (l *LU) applyA(u []float64, i, j, k int) npbcommon.Vec5 {
	g := l.g
	idx := g.Idx(i, j, k)
	var lap npbcommon.Vec5
	for c := 0; c < 5; c++ {
		s := 0.0
		for dim := 0; dim < 3; dim++ {
			s += npbcommon.Diff2(g, u, c, i, j, k, dim)
		}
		lap[c] = -s // −∇²: positive semi-definite
	}
	coupled := l.cmat.MulVec(&lap)
	var out npbcommon.Vec5
	for c := 0; c < 5; c++ {
		conv := (l.qs.Data[idx] - l.rhoI.Data[idx]) * u[idx*5+c]
		out[c] = sigma*u[idx*5+c] + kappa*coupled[c] + eps*conv
	}
	return out
}

// computeForcing sets frct = A(exact) so exact is the steady solution.
func (l *LU) computeForcing() {
	g := l.g
	exact := make([]float64, g.Cells()*5)
	npbcommon.FillExact(g, exact)
	l.computeAux(exact)
	for i := range l.frct.Data {
		l.frct.Data[i] = 0
	}
	for k := 1; k < g.N-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				v := l.applyA(exact, i, j, k)
				base := g.Idx(i, j, k) * 5
				for c := 0; c < 5; c++ {
					l.frct.Data[base+c] = v[c]
				}
			}
		}
	}
}

// computeResid fills rsd = frct − A·u and emits the phase (NPB "rhs").
func (l *LU) computeResid() {
	g := l.g
	u, rsd, frct := l.u.Data, l.rsd.Data, l.frct.Data
	l.computeAux(u)
	parallel.For(l.env.ExecThreads(), g.N, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					base := g.Idx(i, j, k) * 5
					if !g.Interior(i, j, k) {
						for c := 0; c < 5; c++ {
							rsd[base+c] = 0
						}
						continue
					}
					v := l.applyA(u, i, j, k)
					for c := 0; c < 5; c++ {
						rsd[base+c] = frct[base+c] - v[c]
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	l.emit("rhs", rhsFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		l.st(l.u, 5*cells, trace.Read),
		l.st(l.frct, 5*cells, trace.Read),
		l.st(l.qs, cells, trace.Update), l.st(l.rhoI, cells, trace.Update),
		l.st(l.rsd, 5*cells, trace.Write),
	})
}

// sweep performs one triangular relaxation: forward (lower) when fwd,
// backward (upper) otherwise. Within each k-plane the jacobian blocks
// are materialised into the plane workspace and then applied — the NPB
// jacld/blts (jacu/buts) pair.
func (l *LU) sweep(fwd bool) {
	g := l.g
	n := g.N
	rsd := l.rsd.Data
	rhoI := l.rhoI.Data
	jacSlice := l.jacL
	name := "blts"
	if !fwd {
		jacSlice = l.jacU
		name = "buts"
	}
	jac := jacSlice.Data
	ks := make([]int, 0, n)
	if fwd {
		for k := 1; k < n-1; k++ {
			ks = append(ks, k)
		}
	} else {
		for k := n - 2; k >= 1; k-- {
			ks = append(ks, k)
		}
	}
	for _, k := range ks {
		// jacld/jacu: build the per-plane diagonal blocks (spatially
		// varying conditioning through rho_i).
		parallel.For(l.env.ExecThreads(), n, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				for i := 0; i < n; i++ {
					p := (j*n + i) * 25
					scale := 1 + 0.05*rhoI[g.Idx(i, j, k)]
					for c := 0; c < 25; c++ {
						jac[p+c] = l.dinv[c] / scale
					}
				}
			}
		})
		// blts/buts: relax the plane serially, using the neighbours
		// already updated in the sweep direction — Gauss–Seidel order.
		// Each point reads rows j∓1 of rsd that the same plane writes,
		// so splitting rows across workers would race and make the
		// result depend on scheduling; serial, it is the same for any
		// ExecThreads. An in-plane wavefront would need a fork-join per
		// diagonal, thousands per run at these plane sizes.
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				idx := g.Idx(i, j, k)
				var nb npbcommon.Vec5
				var in, jn, kn int
				if fwd {
					in, jn, kn = g.Idx(i-1, j, k), g.Idx(i, j-1, k), g.Idx(i, j, k-1)
				} else {
					in, jn, kn = g.Idx(i+1, j, k), g.Idx(i, j+1, k), g.Idx(i, j, k+1)
				}
				for c := 0; c < 5; c++ {
					nb[c] = rsd[in*5+c] + rsd[jn*5+c] + rsd[kn*5+c]
				}
				// L (or U) off-diagonal blocks are −κC.
				cnb := l.cmat.MulVec(&nb)
				var v npbcommon.Vec5
				for c := 0; c < 5; c++ {
					v[c] = rsd[idx*5+c] + kappa*cnb[c]*0.5
				}
				// Apply the plane jacobian (scaled D⁻¹).
				p := (j*n + i) * 25
				var blk npbcommon.Mat5
				copy(blk[:], jac[p:p+25])
				res := blk.MulVec(&v)
				for c := 0; c < 5; c++ {
					rsd[idx*5+c] = res[c]
				}
			}
		}
	}
	cells := units.Bytes(g.Cells() * 8)
	// The jacobian plane is rebuilt for every k but stays L3-resident
	// between jacld and blts/buts (33 MB plane vs 105 MB L3 at paper
	// scale), so its DRAM traffic per sweep is a couple of plane sizes,
	// not a full volume sweep.
	simPlane := units.Bytes(float64(n*n*25*8) * l.jacL.Rec.Scale)
	l.emit(name, sweepFlopsPerPt, sweepFlopEff, g.Cells(), []trace.Stream{
		l.st(l.rsd, 5*cells, trace.Update),
		l.st(l.rhoI, cells, trace.Read),
		{Alloc: jacSlice.ID(), Bytes: 2 * simPlane, Kind: trace.Update, Pattern: trace.Stencil},
	})
}

// add applies u += ω·rsd on the interior.
func (l *LU) add() {
	g := l.g
	u, rsd := l.u.Data, l.rsd.Data
	parallel.For(l.env.ExecThreads(), g.N, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					if !g.Interior(i, j, k) {
						continue
					}
					base := g.Idx(i, j, k) * 5
					for c := 0; c < 5; c++ {
						u[base+c] += omega * rsd[base+c]
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	l.emit("add", addFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		l.st(l.rsd, 5*cells, trace.Read),
		l.st(l.u, 5*cells, trace.Update),
	})
}

// Run implements workloads.Workload: SSOR iterations.
func (l *LU) Run(env *workloads.Env) error {
	if l.u == nil {
		return fmt.Errorf("npblu: Run before Setup")
	}
	l.env = env
	l.errNorms = append(l.errNorms, npbcommon.ErrNorm(l.g, l.u.Data))
	for it, iters := 0, env.Iters(l.Cfg.Iters); it < iters; it++ {
		l.computeResid()
		l.sweep(true)
		l.sweep(false)
		l.add()
		l.errNorms = append(l.errNorms, npbcommon.ErrNorm(l.g, l.u.Data))
	}
	return nil
}

// DefaultIterations implements workloads.IterationFamily.
func (l *LU) DefaultIterations() int { return l.Cfg.Iters }

// PhaseSchedule implements workloads.IterationFamily: the four-phase
// SSOR loop body repeats identically every iteration.
func (l *LU) PhaseSchedule(iters int) []workloads.PhaseCount {
	i := int64(iters)
	return []workloads.PhaseCount{
		{Name: "rhs", Count: i},
		{Name: "blts", Count: i},
		{Name: "buts", Count: i},
		{Name: "add", Count: i},
	}
}

// ScaleInvariant implements workloads.ScaleFamily: simulated sizes come
// from (PaperN/RealN)³, never from Env.Scale.
func (l *LU) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only perturbs
// the initial field values; the SSOR sweep structure and allocation
// registry never depend on the seed.
func (l *LU) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*LU)(nil)
	_ workloads.ScaleFamily     = (*LU)(nil)
	_ workloads.SeedFamily      = (*LU)(nil)
)

// Verify implements workloads.Workload.
func (l *LU) Verify() error {
	if len(l.errNorms) < 2 {
		return fmt.Errorf("npblu: Verify before Run")
	}
	first, last := l.errNorms[0], l.errNorms[len(l.errNorms)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("npblu: diverged (error %g)", last)
	}
	if last > 0.7*first {
		return fmt.Errorf("npblu: weak contraction %g -> %g over %d iters", first, last, l.Cfg.Iters)
	}
	return nil
}
