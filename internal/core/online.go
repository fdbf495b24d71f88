package core

import (
	"fmt"

	"hmpt/internal/ibs"
	"hmpt/internal/memsim"
	"hmpt/internal/shim"
	"hmpt/internal/units"
	"hmpt/internal/vm"
	"hmpt/internal/workloads"
	"hmpt/internal/xrand"
)

// OnlineOptions configures the online tuning loop.
type OnlineOptions struct {
	// Platform under test; nil selects the single-socket Xeon Max 9468.
	Platform *memsim.Platform
	// Threads for costing (0 = all cores).
	Threads int
	// Epochs bounds the observe-decide-migrate iterations (default 8).
	Epochs int
	// HBMBudget caps HBM usage; 0 means the platform's HBM capacity.
	HBMBudget units.Bytes
	// MinGainFrac is the smallest predicted relative gain that justifies
	// a migration epoch (default 1 %): below it the loop settles.
	MinGainFrac float64
	// Seed makes the run reproducible.
	Seed uint64
}

// EpochResult records one iteration of the online loop.
type EpochResult struct {
	Epoch int
	// Moved is the allocation migrated this epoch (empty when settled).
	Moved string
	// MovedBytes is the volume the migration copied.
	MovedBytes units.Bytes
	// MigrationCost is the simulated time spent copying pages.
	MigrationCost units.Duration
	// EpochTime is the workload epoch time under the placement active
	// during this epoch, including the migration cost.
	EpochTime units.Duration
	// Speedup is the epoch's workload-only speedup vs the first epoch.
	Speedup float64
	// HBMUsed is the HBM footprint after this epoch's migration.
	HBMUsed units.Bytes
}

// OnlineResult is the outcome of an online tuning session.
type OnlineResult struct {
	Workload string
	Epochs   []EpochResult
	// FinalSpeedup is the workload-only speedup of the settled placement.
	FinalSpeedup float64
	// TotalMigrated is the cumulative volume moved between pools.
	TotalMigrated units.Bytes
	// AmortisationEpochs estimates how many epochs of the settled
	// placement pay back the total migration cost.
	AmortisationEpochs float64
}

// Settled reports whether the loop stopped migrating before exhausting
// its epoch budget.
func (r *OnlineResult) Settled() bool {
	return len(r.Epochs) > 0 && r.Epochs[len(r.Epochs)-1].Moved == ""
}

// TuneOnline runs the dynamic placement loop the paper's §III sketches
// as future work: instead of measuring all 2^|AG| configurations
// offline, the tuner observes one epoch (IBS densities over the live
// placement), predicts the gain of promoting the hottest DDR-resident
// allocation to HBM, migrates it through the vm page tables if the gain
// justifies the copy cost, and repeats until it settles. The epoch
// workload is executed once; subsequent epochs replay its trace, which
// matches the paper's fixed-workload assumption.
func TuneOnline(w workloads.Workload, o OnlineOptions) (*OnlineResult, error) {
	if o.Platform == nil {
		o.Platform = memsim.XeonMax9468()
	}
	if o.Epochs <= 0 {
		o.Epochs = 8
	}
	if o.MinGainFrac <= 0 {
		o.MinGainFrac = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	p := o.Platform
	machine := memsim.NewMachine(p)
	rng := xrand.New(o.Seed)
	ddr := p.MustPool(memsim.DDR)
	hbm := p.MustPool(memsim.HBM)

	env := workloads.NewEnv(o.Threads, 1, rng.Split(1).Uint64())
	if err := w.Setup(env); err != nil {
		return nil, fmt.Errorf("core: online setup: %w", err)
	}
	if err := w.Run(env); err != nil {
		return nil, fmt.Errorf("core: online run: %w", err)
	}
	if err := w.Verify(); err != nil {
		return nil, fmt.Errorf("core: online verify: %w", err)
	}
	tr := env.Rec.Trace()

	space, err := vm.FromPlatform(env.Alloc, p)
	if err != nil {
		return nil, err
	}
	budget := o.HBMBudget
	if budget <= 0 {
		budget = p.Pools[hbm].Capacity
	}
	space.SetCapacity(hbm, budget)

	sampler := ibs.NewSampler()
	res := &OnlineResult{Workload: w.Name()}

	base, err := machine.Cost(tr, space, o.Threads, nil)
	if err != nil {
		return nil, err
	}
	baseTime := base.Time
	cur := baseTime
	var hbmUsed units.Bytes

	for epoch := 0; epoch < o.Epochs; epoch++ {
		rep, err := sampler.Sample(tr, env.Alloc, machine, space, rng.Split(uint64(10+epoch)))
		if err != nil {
			return nil, err
		}
		// Candidate: densest allocation still fully in DDR that fits.
		var cand *shim.Allocation
		for _, id := range rep.Ranked() {
			a := env.Alloc.Lookup(id)
			if a == nil || !a.Live() {
				continue
			}
			if space.Split(id)[hbm] > 0.5 {
				continue // already promoted
			}
			if hbmUsed+a.SimSize > budget {
				continue
			}
			cand = a
			break
		}
		er := EpochResult{Epoch: epoch, EpochTime: cur, HBMUsed: hbmUsed}
		if cur > 0 {
			er.Speedup = baseTime.Seconds() / cur.Seconds()
		}
		if cand == nil {
			res.Epochs = append(res.Epochs, er)
			break
		}
		// Predict the gain by costing the trace with the candidate
		// promoted; migrate only if it clears the threshold.
		trial := memsim.NewSimplePlacement(len(p.Pools), ddr)
		for _, a := range env.Alloc.Live() {
			if space.Split(a.ID)[hbm] > 0.5 {
				trial.Set(a.ID, hbm)
			}
		}
		trial.Set(cand.ID, hbm)
		pred, err := machine.Cost(tr, trial, o.Threads, nil)
		if err != nil {
			return nil, err
		}
		gain := (cur.Seconds() - pred.Time.Seconds()) / cur.Seconds()
		if gain < o.MinGainFrac {
			res.Epochs = append(res.Epochs, er)
			break
		}
		moved, err := space.MigrateAlloc(cand, hbm)
		if err != nil {
			return nil, fmt.Errorf("core: migrating %q: %w", cand.Label, err)
		}
		// Migration cost: the pages stream out of DDR and into HBM; the
		// slower (read+write-amplified) side bounds the copy.
		migCost := p.Pools[ddr].BusBW.Time(moved)
		if t := p.Pools[hbm].BusBW.Time(units.Bytes(float64(moved) * p.Pools[hbm].WriteCost)); t > migCost {
			migCost = t
		}
		hbmUsed += cand.SimSize
		after, err := machine.Cost(tr, space, o.Threads, nil)
		if err != nil {
			return nil, err
		}
		cur = after.Time
		er.Moved = cand.Label
		er.MovedBytes = moved
		er.MigrationCost = migCost
		er.EpochTime = after.Time + migCost
		res.Epochs = append(res.Epochs, er)
		res.TotalMigrated += moved
	}

	if cur > 0 {
		res.FinalSpeedup = baseTime.Seconds() / cur.Seconds()
	}
	saved := baseTime.Seconds() - cur.Seconds()
	if saved > 0 {
		var totalMig float64
		for _, e := range res.Epochs {
			totalMig += e.MigrationCost.Seconds()
		}
		res.AmortisationEpochs = totalMig / saved
	}
	return res, nil
}
