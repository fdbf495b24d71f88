package campaign

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hmpt/internal/core"
	"hmpt/internal/trace"
)

// unitCharge is the value charge of every entry of a unitGroup.
const unitCharge = 1000

// unitGroup returns a bounded group that holds exactly n entries with
// two-byte keys: each is charged its key, the entry overhead and one
// unit.
func unitGroup(n int) *FlightGroup {
	g := NewBoundedFlightGroup(int64(n) * (2 + entryOverhead + unitCharge))
	g.sizeOf = func(any) int64 { return unitCharge }
	return g
}

// listed walks the group's recency list from most to least recently
// used and returns the keys, checking the back links as it goes.
func listed(t *testing.T, g *FlightGroup) []string {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	var keys []string
	if g.lru.next == nil {
		return nil
	}
	for f := g.lru.next; f != &g.lru; f = f.next {
		if f.next.prev != f {
			t.Fatalf("entry %q: broken back link", f.key)
		}
		keys = append(keys, f.key)
	}
	return keys
}

func sameKeys(a, b []string) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestFlightGroupEvictsLeastRecentlyUsed: a bounded group keeps its
// completed entries within the budget, evicting from the back of the
// recency list; every hit — do, lookup, add of a held key — moves the
// entry to the front. Retained is the list length throughout.
func TestFlightGroupEvictsLeastRecentlyUsed(t *testing.T) {
	g := unitGroup(3)
	ctx := context.Background()
	put := func(key string, v int) {
		t.Helper()
		if _, _, _, err := g.do(ctx, key, func(context.Context) (any, bool, error) { return v, false, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("k0", 0)
	put("k1", 1)
	g.add("k2", 2)
	if got := listed(t, g); !sameKeys(got, []string{"k2", "k1", "k0"}) {
		t.Fatalf("list = %v, want [k2 k1 k0]", got)
	}
	// Touch k0 three ways; it becomes the most recent each time.
	if _, ok := g.lookup("k0"); !ok {
		t.Fatal("lookup(k0) missed")
	}
	put("k1", -1) // retained: served, fn not run
	g.add("k2", -2)
	if got := listed(t, g); !sameKeys(got, []string{"k2", "k1", "k0"}) {
		t.Fatalf("after touches list = %v, want [k2 k1 k0]", got)
	}
	if _, ok := g.lookup("k0"); !ok {
		t.Fatal("lookup(k0) missed")
	}
	put("k3", 3) // evicts the least recent: k1
	if got := listed(t, g); !sameKeys(got, []string{"k3", "k0", "k2"}) {
		t.Fatalf("list = %v, want [k3 k0 k2]", got)
	}
	if _, ok := g.lookup("k1"); ok {
		t.Error("evicted k1 still served")
	}
	if g.Evictions() != 1 || g.Retained() != 3 {
		t.Errorf("evictions=%d retained=%d, want 1/3", g.Evictions(), g.Retained())
	}
	g.mu.Lock()
	used := g.used
	g.mu.Unlock()
	if want := 3 * (2 + entryOverhead + unitCharge); used != want {
		t.Errorf("charged bytes = %d, want %d", used, want)
	}
	// An evicted key is a miss like any other: the next do recomputes.
	calls := 0
	val, _, shared, err := g.do(ctx, "k1", func(context.Context) (any, bool, error) { calls++; return 11, false, nil })
	if err != nil || val.(int) != 11 || shared || calls != 1 {
		t.Errorf("evicted k1: val=%v shared=%v err=%v calls=%d, want a fresh computation", val, shared, err, calls)
	}
	if got := listed(t, g); len(got) != g.Retained() || g.Evictions() != 2 {
		t.Errorf("list %v, retained %d, evictions %d: want the list length retained and 2 evictions", got, g.Retained(), g.Evictions())
	}
}

// TestFlightGroupEvictNeverTouchesInFlight: an entry still computing is
// not charged and cannot be evicted, however far completed entries
// overrun the budget; an entry larger than the whole budget is handed
// to its callers but not retained.
func TestFlightGroupEvictNeverTouchesInFlight(t *testing.T) {
	g := unitGroup(1)
	ctx := context.Background()
	release := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan any)
	go func() {
		val, _, _, _ := g.do(ctx, "kf", func(context.Context) (any, bool, error) {
			close(entered)
			<-release
			return "slow", false, nil
		})
		done <- val
	}()
	<-entered
	for i := 0; i < 4; i++ {
		g.add(fmt.Sprintf("k%d", i), i)
	}
	if g.Retained() != 1 || g.Evictions() != 3 || g.InFlight() != 1 {
		t.Errorf("retained=%d evictions=%d inflight=%d, want 1/3/1", g.Retained(), g.Evictions(), g.InFlight())
	}
	g.mu.Lock()
	_, ok := g.flights["kf"]
	g.mu.Unlock()
	if !ok {
		t.Fatal("the in-flight entry was forgotten")
	}
	close(release)
	if v := <-done; v != "slow" {
		t.Fatalf("in-flight caller got %v", v)
	}
	if got := listed(t, g); !sameKeys(got, []string{"kf"}) || g.Evictions() != 4 {
		t.Errorf("list = %v evictions = %d, want [kf] and 4 once it completed (k3 makes room)", got, g.Evictions())
	}

	g.sizeOf = func(any) int64 { return 10 * unitCharge }
	val, _, _, err := g.do(ctx, "kb", func(context.Context) (any, bool, error) { return "big", false, nil })
	if err != nil || val != "big" {
		t.Fatalf("oversized entry: val=%v err=%v", val, err)
	}
	if _, ok := g.lookup("kb"); ok {
		t.Error("an entry larger than the budget was retained")
	}
	if got := listed(t, g); !sameKeys(got, []string{"kf"}) || g.Evictions() != 4 {
		t.Errorf("list = %v evictions = %d, want [kf] and 4: an oversized entry displaces nothing", got, g.Evictions())
	}
}

// TestEvictBetweenWaiterAttachAndRead forces the interleaving in which
// a waiter attaches to an in-flight entry, the entry completes and is
// evicted, and only then does the waiter read it. The waiter still gets
// the value, counted as exactly one Coalesced: eviction forgets the
// key, never a value some caller holds.
func TestEvictBetweenWaiterAttachAndRead(t *testing.T) {
	g := unitGroup(1)
	// The leader's half of do, by hand, so the test owns the moment the
	// flight completes.
	f := &flight{key: "k0", done: make(chan struct{}), cancel: func() {}, refs: 1}
	g.flights["k0"] = f
	g.inFlight.Add(1)

	led := core.NewLedger(nil)
	type result struct {
		val    any
		shared bool
		err    error
	}
	got := make(chan result, 1)
	go func() {
		val, _, shared, err := g.do(core.WithLedger(context.Background(), led), "k0", func(context.Context) (any, bool, error) {
			return nil, false, fmt.Errorf("the waiter started a computation")
		})
		got <- result{val, shared, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.Waiters() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never attached")
		}
		runtime.Gosched()
	}

	// Complete the flight as run does, then evict it before releasing
	// the waiter.
	f.val = 7
	g.mu.Lock()
	g.retain(f)
	g.mu.Unlock()
	g.add("k1", 8)
	if _, ok := g.lookup("k0"); ok || g.Evictions() != 1 {
		t.Fatalf("k0 not evicted (evictions %d)", g.Evictions())
	}
	g.inFlight.Add(-1)
	close(f.done)

	r := <-got
	if r.err != nil || r.val != 7 || !r.shared {
		t.Errorf("waiter got val=%v shared=%v err=%v, want 7/true/nil", r.val, r.shared, r.err)
	}
	if w := led.Work(); w.Coalesced != 1 {
		t.Errorf("waiter ledger Coalesced = %d, want exactly 1", w.Coalesced)
	}
}

// TestEvictedEntriesFallThroughToDisk: once a shared group has evicted
// a matrix's entries, a warm rerun is served from the disk rungs —
// every analysis an analysis-cache hit, the capture the GroupBy cells
// key over a snapshot-cache hit — with zero kernels, sampling passes,
// placement passes and derivations, and the cold run's analyses.
func TestEvictedEntriesFallThroughToDisk(t *testing.T) {
	m := testMatrix(t)
	m.Workloads[2].Options.GroupBy = func(string) string { return "all" }
	snaps, err := trace.NewSnapshotCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	analyses, err := core.NewAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := NewBoundedFlightGroup(64 << 10)
	e := &Engine{Cache: snaps, Analyses: analyses, Flights: g}
	cold, err := e.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	// Fillers push every entry the cold run left out of the group.
	for i := 0; i < 64; i++ {
		g.add(fmt.Sprintf("filler/%d", i), &core.Analysis{Configs: make([]core.Config, 8)})
	}
	for _, key := range listed(t, g) {
		if !strings.HasPrefix(key, "filler/") {
			t.Fatalf("%s still retained after the fillers", key)
		}
	}
	if g.Evictions() == 0 {
		t.Fatal("nothing was evicted")
	}
	snapBefore, anBefore := snaps.Stats(), analyses.Stats()
	warm, err := e.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	if w := warm.Work; w.Kernels != 0 || w.SamplePasses != 0 || w.SweepEvaluations != 0 || w.Derived != 0 {
		t.Errorf("warm run after eviction did work: %+v", w)
	}
	if warm.AnalysisHits != len(warm.Cells) {
		t.Errorf("warm run served %d/%d cells from a cache", warm.AnalysisHits, len(warm.Cells))
	}
	if d := analyses.Stats().Hits - anBefore.Hits; d != int64(len(warm.Cells)) {
		t.Errorf("%d analysis-cache hits, want %d: evicted analyses come from disk", d, len(warm.Cells))
	}
	if d := snaps.Stats().Hits - snapBefore.Hits; d != 1 {
		t.Errorf("%d snapshot-cache hits, want 1: the GroupBy cells' evicted capture comes from disk", d)
	}
	for i := range warm.Cells {
		if !reflect.DeepEqual(warm.Cells[i].Analysis, cold.Cells[i].Analysis) {
			t.Errorf("cell %d differs from the cold run", i)
		}
	}
}

// TestRechargeKeepsCaptureChargesCurrent: a capture entry's replay
// context memoises a sampling report and compiled evaluators for every
// platform that replays it, so the entry outgrows the charge it was
// retained with. The engine recharges it after each analysis, so while
// hot captures are replayed on both platform presets between cold
// ones, the group's used total stays exactly the sum of its listed
// entries' current charges, and within the budget.
func TestRechargeKeepsCaptureChargesCurrent(t *testing.T) {
	const budget = 96 << 10
	g := NewBoundedFlightGroup(budget)
	e := &Engine{Flights: g}
	matrix := func(seed uint64) Matrix {
		m := testMatrix(t)
		m.Workloads = m.Workloads[2:] // synth
		m.Workloads[0].Options.Seed = seed
		return m
	}
	memoised := false
	check := func(step string) {
		t.Helper()
		g.mu.Lock()
		defer g.mu.Unlock()
		var sum int64
		for f := g.lru.next; f != &g.lru; f = f.next {
			sum += int64(len(f.key)) + entryOverhead + entryBytes(f.val)
			if c, ok := f.val.(capOutcome); ok && c.ctx.MemoBytes() > 0 {
				memoised = true
			}
		}
		if sum != g.used {
			t.Fatalf("%s: listed entries' current charges sum to %d, the group accounts %d", step, sum, g.used)
		}
		if g.used > g.budget {
			t.Fatalf("%s: %d bytes charged, over the %d-byte budget", step, g.used, g.budget)
		}
	}
	hot := []uint64{1, 2}
	for cold := uint64(100); cold < 112; cold++ {
		for _, seed := range []uint64{cold, hot[cold%2]} {
			res, err := e.Run(matrix(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("seed %d after cold %d", seed, cold))
		}
	}
	if !memoised {
		t.Error("no listed capture ever held a memo: the test exercised no recharge")
	}
	if g.Evictions() == 0 {
		t.Error("nothing was evicted: the budget never bound")
	}
}
