package campaign

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/memsim"
	"hmpt/internal/workloads"
)

// gatedMatrix is a one-cell matrix whose kernel blocks in Run until
// release closes, announcing each start on started.
func gatedMatrix(name string, seed uint64, started chan<- struct{}, release <-chan struct{}) Matrix {
	return Matrix{
		Workloads: []Workload{{
			Name: name,
			Factory: func() workloads.Workload {
				w, err := workloads.New(name)
				if err != nil {
					panic(err)
				}
				return &gatedWorkload{inner: w, started: started, release: release}
			},
			Options: core.Options{Seed: seed},
		}},
		Platforms: []Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}
}

// TestLedgerLeaderDetach forces the hand-off case: the run that started
// a capture flight is cancelled while the kernel runs, and a waiting
// run sees the flight through. The kernel is counted once, on the
// cancelled leader's ledger (the flight's context carries it); the
// waiter counts one coalesced capture; their shared parent counts one
// kernel.
func TestLedgerLeaderDetach(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	m := gatedMatrix("synth", 51, started, release)
	flights := NewFlightGroup()
	parent := core.NewLedger(nil)
	leader, waiter := core.NewLedger(parent), core.NewLedger(parent)

	lctx, cancel := context.WithCancel(core.WithLedger(context.Background(), leader))
	leaderErr := make(chan error, 1)
	go func() {
		_, err := (&Engine{Flights: flights}).RunContext(lctx, m)
		leaderErr <- err
	}()
	<-started // the leader's capture flight is executing the kernel

	var res *Result
	var werr error
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		res, werr = (&Engine{Flights: flights}).RunContext(core.WithLedger(context.Background(), waiter), m)
	}()
	waitFor(t, func() bool { return flights.Waiters() == 1 })
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader = %v, want context.Canceled", err)
	}
	close(release)
	<-waiterDone
	if werr != nil {
		t.Fatal(werr)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	if got := leader.Work(); got.Kernels != 1 || got.SamplePasses != 1 || got.Coalesced != 0 {
		t.Errorf("leader ledger %+v, want the kernel and its count pass, nothing coalesced", got)
	}
	if got := waiter.Work(); got.Kernels != 0 || got.Coalesced != 1 {
		t.Errorf("waiter ledger %+v, want 0 kernels and 1 coalesced capture", got)
	}
	if res.Work != waiter.Work() {
		t.Errorf("waiter Result.Work %+v differs from its ledger %+v", res.Work, waiter.Work())
	}
	if res.Coalesced != 1 || res.Executions != 0 {
		t.Errorf("waiter provenance: coalesced=%d executions=%d, want 1/0", res.Coalesced, res.Executions)
	}
	if got := parent.Work(); got.Kernels != 1 || got.Coalesced != 1 {
		t.Errorf("parent ledger %+v, want 1 kernel and 1 coalesced", got)
	}
}

// TestLedgerConcurrentAttribution: two engines running disjoint
// matrices at the same time (both kernels are held until both have
// started) each count exactly their own work.
func TestLedgerConcurrentAttribution(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	matrices := []Matrix{
		gatedMatrix("synth", 61, started, release),
		gatedMatrix("stream", 62, started, release),
	}
	ledgers := []*core.Ledger{core.NewLedger(nil), core.NewLedger(nil)}
	results := make([]*Result, len(matrices))
	errs := make([]error, len(matrices))
	var wg sync.WaitGroup
	for i := range matrices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := core.WithLedger(context.Background(), ledgers[i])
			results[i], errs[i] = (&Engine{}).RunContext(ctx, matrices[i])
		}()
	}
	<-started
	<-started
	close(release)
	wg.Wait()

	want := core.Work{Kernels: 1, SamplePasses: 1, SweepEvaluations: 2, CountWalks: 1}
	for i, l := range ledgers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if err := results[i].Err(); err != nil {
			t.Fatal(err)
		}
		if got := l.Work(); got != want {
			t.Errorf("engine %d ledger %+v, want %+v", i, got, want)
		}
		if results[i].Work != l.Work() {
			t.Errorf("engine %d Result.Work %+v differs from its ledger %+v", i, results[i].Work, l.Work())
		}
	}
}
