package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/memsim"
	"hmpt/internal/workloads"
)

func synthFactory(t *testing.T) workloads.Factory {
	t.Helper()
	return func() workloads.Workload {
		w, err := workloads.New("synth")
		if err != nil {
			panic(err)
		}
		return w
	}
}

// TestRunContextCancelledMidMatrixStopsColdWork is the serving-layer
// cancellation acceptance criterion at the engine level: cancelling a
// cold three-cell matrix mid-capture performs strictly less work than
// the full matrix (pinned by the kernel and sweep counters), returns
// the context's error with no partial result, and leaves the shared
// state consistent enough that an identical retry completes in full.
// The matrix uses chase — the seed-dependent derivation opt-out — so
// its three seeds really are three distinct kernel executions rather
// than one capture plus two seed derivations.
func TestRunContextCancelledMidMatrixStopsColdWork(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	flights := NewFlightGroup()

	gated := func(seed uint64) Workload {
		return Workload{
			Name: "chase",
			Factory: func() workloads.Workload {
				w, err := workloads.New("chase")
				if err != nil {
					panic(err)
				}
				return &gatedWorkload{inner: w, started: started, release: release}
			},
			Options: core.Options{Seed: seed},
		}
	}
	m := Matrix{
		Workloads: []Workload{gated(11), gated(12), gated(13)},
		Platforms: []Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}

	led := core.NewLedger(nil)
	ctx, cancel := context.WithCancel(core.WithLedger(context.Background(), led))
	runDone := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(runDone)
		eng := &Engine{Flights: flights, Parallelism: 1}
		res, runErr = eng.RunContext(ctx, m)
	}()

	// The single worker is executing the first (gated) kernel; cancel
	// the request while it is mid-capture, then release the gate so the
	// detached computation can wind down.
	<-started
	cancel()
	<-runDone
	close(release)
	waitFor(t, func() bool { return flights.InFlight() == 0 })

	if !errors.Is(runErr, context.Canceled) || res != nil {
		t.Fatalf("RunContext = (%v, %v), want (nil, context.Canceled)", res, runErr)
	}
	// The detached flight counted on the cancelled run's ledger, and
	// it has wound down, so led is final.
	cancelled := led.Work()
	cancelledKernels := cancelled.Kernels
	cancelledSamples := cancelled.SamplePasses
	cancelledSweeps := cancelled.SweepEvaluations
	if cancelledKernels > 1 {
		t.Errorf("cancelled run executed %d kernels, want at most the one in flight", cancelledKernels)
	}
	if cancelledSamples != 0 || cancelledSweeps != 0 {
		t.Errorf("cancelled run did post-capture work: %d sample passes, %d sweep evaluations",
			cancelledSamples, cancelledSweeps)
	}

	// An identical retry — same keys, same shared flight group —
	// completes in full: nothing the cancelled run left behind poisons it.
	chaseFactory := func() workloads.Workload {
		w, err := workloads.New("chase")
		if err != nil {
			panic(err)
		}
		return w
	}
	plain := Matrix{
		Workloads: []Workload{
			{Name: "chase", Factory: chaseFactory, Options: core.Options{Seed: 11}},
			{Name: "chase", Factory: chaseFactory, Options: core.Options{Seed: 12}},
			{Name: "chase", Factory: chaseFactory, Options: core.Options{Seed: 13}},
		},
		Platforms: m.Platforms,
	}
	retry, err := (&Engine{Flights: flights, Parallelism: 1}).Run(plain)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if err := retry.Err(); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	fullKernels := retry.Work.Kernels
	fullSweeps := retry.Work.SweepEvaluations
	if retry.Executions != 3 || fullKernels != 3 {
		t.Errorf("retry executed %d captures / %d kernels, want 3/3 (cancelled run must not have published partial state)",
			retry.Executions, fullKernels)
	}
	// The acceptance pin: the cancelled run did strictly less work than
	// the full matrix, measured by the same counters on the same matrix.
	if cancelledKernels >= fullKernels {
		t.Errorf("cancelled run executed %d kernels, full matrix needs %d — cancellation saved nothing", cancelledKernels, fullKernels)
	}
	if cancelledSweeps >= fullSweeps {
		t.Errorf("cancelled run ran %d sweep evaluations, full matrix needs %d — cancellation saved nothing", cancelledSweeps, fullSweeps)
	}
}

// TestCancelledWaiterDetachesWithoutCancellingLeader: a waiter whose
// context dies leaves with its own ctx.Err(); the leader's computation
// is unaffected and still delivers its result.
func TestCancelledWaiterDetachesWithoutCancellingLeader(t *testing.T) {
	g := NewFlightGroup()
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	var leaderVal any
	var leaderErr error
	go func() {
		defer close(leaderDone)
		leaderVal, _, _, leaderErr = g.do(context.Background(), "k", func(fctx context.Context) (any, bool, error) {
			close(entered)
			<-release
			if err := fctx.Err(); err != nil {
				return nil, false, err
			}
			return 1, false, nil
		})
	}()
	<-entered

	wctx, wcancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, _, err := g.do(wctx, "k", func(context.Context) (any, bool, error) {
			t.Error("waiter started its own computation instead of joining")
			return nil, false, nil
		})
		waiterErr <- err
	}()
	waitFor(t, func() bool { return g.Waiters() == 1 })
	wcancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	close(release)
	<-leaderDone
	if leaderErr != nil {
		t.Fatalf("leader failed after waiter cancelled: %v", leaderErr)
	}
	if leaderVal.(int) != 1 {
		t.Errorf("leader val = %v, want 1", leaderVal)
	}
	if g.Retained() != 1 {
		t.Errorf("retained = %d, want 1 (success kept despite the cancelled waiter)", g.Retained())
	}
}

// TestCancelledLeaderHandsOffToWaiter: when the caller that started the
// flight cancels, the computation keeps running for the waiter that
// remains — leadership hands off implicitly because the computation
// goroutine belongs to the flight, not to any caller.
func TestCancelledLeaderHandsOffToWaiter(t *testing.T) {
	g := NewFlightGroup()
	entered := make(chan struct{})
	release := make(chan struct{})
	lctx, lcancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := g.do(lctx, "k", func(fctx context.Context) (any, bool, error) {
			close(entered)
			<-release
			if err := fctx.Err(); err != nil {
				return nil, false, err
			}
			return 7, false, nil
		})
		leaderErr <- err
	}()
	<-entered

	type out struct {
		val any
		err error
	}
	waiterOut := make(chan out, 1)
	go func() {
		v, _, _, err := g.do(context.Background(), "k", func(context.Context) (any, bool, error) {
			t.Error("waiter started its own computation instead of joining")
			return nil, false, nil
		})
		waiterOut <- out{v, err}
	}()
	waitFor(t, func() bool { return g.Waiters() == 1 })

	lcancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader got %v, want context.Canceled", err)
	}
	// The waiter is still interested, so the flight context stays alive.
	close(release)
	got := <-waiterOut
	if got.err != nil {
		t.Fatalf("waiter failed after leader cancelled: %v", got.err)
	}
	if got.val.(int) != 7 {
		t.Errorf("waiter val = %v, want 7 (handed-off computation's result)", got.val)
	}
}

// TestLastCallerCancelAbortsComputation: when every interested caller
// has detached, the flight's context is cancelled — the computation
// aborts cooperatively, the flight is forgotten, and a later call
// starts fresh.
func TestLastCallerCancelAbortsComputation(t *testing.T) {
	g := NewFlightGroup()
	entered := make(chan struct{})
	aborted := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	callerErr := make(chan error, 1)
	go func() {
		_, _, _, err := g.do(ctx, "k", func(fctx context.Context) (any, bool, error) {
			close(entered)
			<-fctx.Done() // observe the abort: the only way out is cancellation
			close(aborted)
			return nil, false, fctx.Err()
		})
		callerErr <- err
	}()
	<-entered
	cancel()
	if err := <-callerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	<-aborted // the flight context really was cancelled
	waitFor(t, func() bool { return g.InFlight() == 0 && g.Retained() == 0 })

	val, _, shared, err := g.do(context.Background(), "k", func(context.Context) (any, bool, error) {
		return 5, false, nil
	})
	if err != nil || shared || val.(int) != 5 {
		t.Errorf("retry after abort: val=%v shared=%v err=%v, want 5/false/nil", val, shared, err)
	}
}

// TestPanickedFlightFailsCallersNotProcess: a panic inside a flight's
// computation is recovered into an error shared by its callers, counted
// in RecoveredPanics, and forgotten so a retry runs fresh.
func TestPanickedFlightFailsCallersNotProcess(t *testing.T) {
	t.Parallel()
	g := NewFlightGroup()
	led := core.NewLedger(nil)
	_, _, _, err := g.do(core.WithLedger(context.Background(), led), "k", func(context.Context) (any, bool, error) {
		panic("poison")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a recovered-panic error", err)
	}
	if got := led.Work().RecoveredPanics; got != 1 {
		t.Errorf("RecoveredPanics = %d, want 1", got)
	}
	if g.Retained() != 0 {
		t.Errorf("retained = %d, want 0 (panicked flight forgotten)", g.Retained())
	}
	val, _, _, err := g.do(context.Background(), "k", func(context.Context) (any, bool, error) {
		return 9, false, nil
	})
	if err != nil || val.(int) != 9 {
		t.Errorf("retry after panic: val=%v err=%v, want 9/nil", val, err)
	}
}

// TestPoisonedCellFailsCellNotCampaign is panic isolation at the engine
// level: one cell whose workload factory panics fails that cell with a
// recovered-panic error while every other cell analyses normally.
func TestPoisonedCellFailsCellNotCampaign(t *testing.T) {
	t.Parallel()
	m := Matrix{
		Workloads: []Workload{
			{Name: "synth", Factory: func() workloads.Workload { panic("poisoned factory") }, Options: core.Options{Seed: 31}},
			{Name: "synth", Factory: synthFactory(t), Options: core.Options{Seed: 32}},
		},
		Platforms: []Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}
	res, err := (&Engine{Flights: NewFlightGroup()}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, healthy := &res.Cells[0], &res.Cells[1]
	if poisoned.Err == nil || !strings.Contains(poisoned.Err.Error(), "panicked") {
		t.Errorf("poisoned cell err = %v, want a recovered-panic error", poisoned.Err)
	}
	if healthy.Err != nil || healthy.Analysis == nil {
		t.Errorf("healthy cell: analysis=%v err=%v, want a result and no error", healthy.Analysis, healthy.Err)
	}
	if got := res.Work.RecoveredPanics; got != 1 {
		t.Errorf("RecoveredPanics = %d, want 1", got)
	}
}

// TestRunContextPreCancelled: a dead context fails the run before any
// stage starts.
func TestRunContextPreCancelled(t *testing.T) {
	t.Parallel()
	led := core.NewLedger(nil)
	ctx, cancel := context.WithCancel(core.WithLedger(context.Background(), led))
	cancel()
	m := Matrix{
		Workloads: []Workload{{Name: "synth", Factory: synthFactory(t), Options: core.Options{Seed: 33}}},
		Platforms: []Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}
	res, err := (&Engine{Flights: NewFlightGroup()}).RunContext(ctx, m)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunContext = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if got := led.Work().Kernels; got != 0 {
		t.Errorf("pre-cancelled run executed %d kernels", got)
	}
}
