package main

import (
	"testing"
	"time"
)

// TestFailingOpsEndThePhase drives the measured phase of a program whose
// every campaign fails: no read-back query ever runs, so the warm sample
// minimum is never met, and only the phase limit ends the loop. The run
// must still report a value for every end-to-end latency.
func TestFailingOpsEndThePhase(t *testing.T) {
	rc := &runCfg{seconds: 20 * time.Millisecond, info: map[string]any{}}
	st := newOpStats()
	start := time.Now()
	for i := 0; st.more(rc); i++ {
		time.Sleep(time.Millisecond)
		st.addOp(rc, i, time.Millisecond)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("the phase ran %v for a 20 ms run", waited)
	}
	if len(st.warmDur) != 0 || len(st.opDur) >= minOps {
		t.Fatalf("%d ops, %d warm: the test needs the minimums unmet", len(st.opDur), len(st.warmDur))
	}
	out := newOutcome()
	st.report(rc, out)
	for _, name := range []string{"campaign_ms_p50", "campaign_ms_p90", "warm_ms_p50", "warm_ms_p95", "cells_per_s", "req_per_s"} {
		if _, ok := out.values[name]; !ok {
			t.Errorf("%s not reported", name)
		}
	}
	if got := out.values["warm_ms_p50"]; got != 0 {
		t.Errorf("warm_ms_p50 with no samples = %v, want 0", got)
	}
	if got := out.values["campaign_ms_p90"]; got != 1 {
		t.Errorf("campaign_ms_p90 over short samples = %v, want the nearest rank, 1", got)
	}
	short, _ := rc.info["short_samples"].([]string)
	if len(short) != 3 {
		t.Errorf("short_samples = %v, want campaign_ms_p90, warm_ms_p50, warm_ms_p95", short)
	}
}

// TestTallyChecksEveryOperation holds the constant-size record to the
// per-operation comparison it replaces: every operation whose digests
// differ from its group's oracle counts, however many share an entry.
func TestTallyChecksEveryOperation(t *testing.T) {
	a, b := digest{1}, digest{2}
	want := map[int][]digest{0: {a, b}, 1: {b, a}}
	got := make(tally)
	for op := 0; op < 10; op++ {
		group := op % 2
		ds := want[group]
		if op == 7 || op == 9 {
			ds = []digest{a, a} // wrong for group 1
		}
		got.add(group, op, ds)
	}
	if len(got) != 3 {
		t.Errorf("%d entries, want 3 (two groups, one wrong result)", len(got))
	}
	if n := got.check("test", func(op int) []digest { return want[op%2] }); n != 2 {
		t.Errorf("check counted %d differing operations, want 2", n)
	}
	if n := got.check("test", func(int) []digest { return nil }); n != 10 {
		t.Errorf("with no oracle, check counted %d, want all 10", n)
	}
}
