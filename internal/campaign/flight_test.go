package campaign

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"hmpt/internal/core"
	"hmpt/internal/memsim"
	"hmpt/internal/workloads"
)

func TestFlightGroupRunsOnceAndRetains(t *testing.T) {
	g := NewFlightGroup()
	calls := 0
	for i := 0; i < 3; i++ {
		val, flag, shared, err := g.do(context.Background(), "k", func(context.Context) (any, bool, error) {
			calls++
			return 42, true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if val.(int) != 42 || !flag {
			t.Errorf("call %d: val=%v flag=%v, want 42/true", i, val, flag)
		}
		if shared != (i > 0) {
			t.Errorf("call %d: shared=%v, want %v", i, shared, i > 0)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1 (retention)", calls)
	}
	if g.Retained() != 1 || g.InFlight() != 0 {
		t.Errorf("retained=%d inflight=%d, want 1/0", g.Retained(), g.InFlight())
	}
}

func TestFlightGroupForgetsFailures(t *testing.T) {
	g := NewFlightGroup()
	boom := errors.New("boom")
	calls := 0
	if _, _, _, err := g.do(context.Background(), "k", func(context.Context) (any, bool, error) { calls++; return nil, false, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	val, _, shared, err := g.do(context.Background(), "k", func(context.Context) (any, bool, error) { calls++; return 7, false, nil })
	if err != nil || val.(int) != 7 || shared {
		t.Errorf("retry: val=%v shared=%v err=%v, want 7/false/nil", val, shared, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (failure forgotten)", calls)
	}
	if g.Retained() != 1 {
		t.Errorf("retained=%d, want 1 (only the success)", g.Retained())
	}
}

// TestLookupMissesFailedEntry: a failed flight is visible in the map
// between its completion and run's delete. lookup must report that
// state as a miss, and the engine's probes built on it must not adopt
// the entry's nil value.
func TestLookupMissesFailedEntry(t *testing.T) {
	g := NewFlightGroup()
	f := &flight{done: make(chan struct{}), err: errors.New("boom")}
	close(f.done)
	g.flights["an/k"], g.flights["cap/k"] = f, f
	for _, key := range []string{"an/k", "cap/k"} {
		if val, ok := g.lookup(key); ok || val != nil {
			t.Errorf("lookup(%q) = %v/%v, want a miss", key, val, ok)
		}
	}
	e := &Engine{}
	if an := e.probe(g, &cellWork{id: "an/k", haveKey: true}); an != nil {
		t.Errorf("probe served %v from a failed flight", an)
	}
	c := &capture{id: "cap/k"}
	if e.loadCapture(g, c) || c.hit {
		t.Error("loadCapture served a failed flight")
	}
}

func TestFlightGroupSharesConcurrently(t *testing.T) {
	t.Parallel()
	g := NewFlightGroup()
	const k = 8
	led := core.NewLedger(nil)
	ctx := core.WithLedger(context.Background(), led)
	release := make(chan struct{})
	entered := make(chan struct{})
	results := make([]int, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, _, _, err := g.do(ctx, "k", func(context.Context) (any, bool, error) {
				close(entered)
				<-release
				return 99, false, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = val.(int)
		}()
	}
	<-entered
	waitFor(t, func() bool { return g.Waiters() == k-1 })
	if g.InFlight() != 1 {
		t.Errorf("inflight=%d, want 1", g.InFlight())
	}
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != 99 {
			t.Errorf("caller %d got %d, want 99", i, v)
		}
	}
	if got := led.Work().Coalesced; got != k-1 {
		t.Errorf("Coalesced = %d, want %d", got, k-1)
	}
}

// waitFor polls cond until true or a 10s deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedWorkload delegates to a registry workload but blocks its kernel
// in Run until released, so a test can hold a capture in flight while
// concurrent engine runs pile up on it.
type gatedWorkload struct {
	inner   workloads.Workload
	started chan<- struct{}
	release <-chan struct{}
}

func (g *gatedWorkload) Name() string                 { return g.inner.Name() }
func (g *gatedWorkload) Setup(e *workloads.Env) error { return g.inner.Setup(e) }
func (g *gatedWorkload) Verify() error                { return g.inner.Verify() }
func (g *gatedWorkload) Run(e *workloads.Env) error {
	g.started <- struct{}{}
	<-g.release
	return g.inner.Run(e)
}

// TestConcurrentRunsCoalesceToOneExecution is the serving-layer
// acceptance criterion at the engine level: K concurrent engine runs
// needing the same cold scenario — sharing a FlightGroup but nothing
// else (no disk caches) — execute exactly one kernel, one sampling pass
// and one probe+sweep, and the coalescing counter pins the other K-1
// capture adoptions and K-1 analysis adoptions.
func TestConcurrentRunsCoalesceToOneExecution(t *testing.T) {
	t.Parallel()
	const k = 4
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	flights := NewFlightGroup()

	m := Matrix{
		Workloads: []Workload{{
			Name: "synth",
			Factory: func() workloads.Workload {
				w, err := workloads.New("synth")
				if err != nil {
					panic(err)
				}
				return &gatedWorkload{inner: w, started: started, release: release}
			},
			Options: core.Options{Seed: 1},
		}},
		Platforms: []Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}

	// Every run's ledger is a child of led, so led sums all k runs.
	led := core.NewLedger(nil)
	ctx := core.WithLedger(context.Background(), led)

	results := make([]*Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := &Engine{Flights: flights}
			results[i], errs[i] = eng.RunContext(ctx, m)
		}()
	}

	// One run is executing the (gated) kernel; wait until the other
	// k-1 are blocked on its capture flight, then let it finish.
	<-started
	waitFor(t, func() bool { return flights.Waiters() == k-1 })
	close(release)
	wg.Wait()

	var execs, coals int
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if err := results[i].Err(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		execs += results[i].Executions
		coals += results[i].Coalesced
		if i > 0 && !reflect.DeepEqual(results[i].Cells[0].Analysis, results[0].Cells[0].Analysis) {
			t.Errorf("run %d analysis differs from run 0", i)
		}
	}
	if execs != 1 || coals != k-1 {
		t.Errorf("executions=%d coalesced=%d across runs, want 1/%d", execs, coals, k-1)
	}
	work := led.Work()
	if got := work.Kernels; got != 1 {
		t.Errorf("kernel executions = %d, want 1", got)
	}
	if got := work.SamplePasses; got != 1 {
		t.Errorf("sample passes = %d, want 1", got)
	}
	if got := work.SweepEvaluations; got != 2 {
		t.Errorf("sweep evaluations = %d, want 2 (one probe + one sweep)", got)
	}
	// k-1 runs adopted the capture, and k-1 runs adopted the analysis.
	if got := work.Coalesced; got != 2*(k-1) {
		t.Errorf("Coalesced = %d, want %d", got, 2*(k-1))
	}
}

// TestSharedFlightsRetainAcrossSequentialRuns proves the retention
// half: a second run arriving after the first completed is served from
// the group's retained analysis without re-executing anything, and —
// because the entry predates the run — reports it as a cache hit, not as
// a coalesced flight.
func TestSharedFlightsRetainAcrossSequentialRuns(t *testing.T) {
	t.Parallel()
	flights := NewFlightGroup()
	m := Matrix{
		Workloads: []Workload{{
			Name: "synth",
			Factory: func() workloads.Workload {
				w, err := workloads.New("synth")
				if err != nil {
					panic(err)
				}
				return w
			},
			Options: core.Options{Seed: 2},
		}},
		Platforms: []Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}
	run := func() *Result {
		t.Helper()
		res, err := (&Engine{Flights: flights}).Run(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Executions != 1 {
		t.Fatalf("cold run executed %d captures, want 1", first.Executions)
	}
	warm := run()
	if warm.AnalysisHits != 1 || warm.Snapshots != 0 || warm.Coalesced != 0 {
		t.Errorf("warm run: analysis hits=%d snapshots=%d coalesced=%d, want 1/0/0",
			warm.AnalysisHits, warm.Snapshots, warm.Coalesced)
	}
	if !warm.Cells[0].AnalysisFromCache || warm.Cells[0].Coalesced {
		t.Errorf("warm cell: analysis-from-cache=%v coalesced=%v, want true/false",
			warm.Cells[0].AnalysisFromCache, warm.Cells[0].Coalesced)
	}
	if got := warm.Work.Coalesced; got != 0 {
		t.Errorf("Coalesced = %d, want 0 (an earlier run's entry is a cache hit)", got)
	}
	if got := warm.Work.Kernels; got != 0 {
		t.Errorf("warm run executed %d kernels, want 0", got)
	}
	if got := warm.Work.SweepEvaluations; got != 0 {
		t.Errorf("warm run ran %d placement passes, want 0", got)
	}
	if !reflect.DeepEqual(first.Cells[0].Analysis, warm.Cells[0].Analysis) {
		t.Error("retained analysis differs from the original")
	}
}
