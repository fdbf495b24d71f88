package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {1, 1}} {
		got, err := percentile(append([]float64(nil), xs...), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if got, err := percentile(seq(3), 50); err != nil || got != 2 {
		t.Errorf("median of 1..3 = %v, %v; want 2", got, err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{90, 100, true}, {90, 99, false},
		{99, 1000, true}, {99, 999, false}, {99, 100, false},
		{50, 1, true},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", c.p, c.n, err, c.ok)
		}
	}
	if n := samplesFor(90); n != 100 {
		t.Errorf("samplesFor(90) = %d, want 100", n)
	}
	if n := samplesFor(99); n != 1000 {
		t.Errorf("samplesFor(99) = %d, want 1000", n)
	}
	if minOps < samplesFor(90) || minWarm < samplesFor(95) || clients*missesPerClient < samplesFor(90) {
		t.Errorf("minOps=%d, minWarm=%d, %d misses cannot support p90 and p95", minOps, minWarm, clients*missesPerClient)
	}
}

func TestRate(t *testing.T) {
	if got := rate(140, 2*time.Second); got != 70 {
		t.Errorf("rate(140, 2s) = %v, want 70", got)
	}
	if got := rate(5, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
}

func TestCampaignThroughputs(t *testing.T) {
	st := newOpStats()
	for i := 0; i < 100; i++ {
		st.addOp(&runCfg{}, i, 100*time.Millisecond)
	}
	for i := 0; i < 1000; i++ {
		st.warmDur = append(st.warmDur, time.Millisecond)
		st.busy += time.Millisecond
	}
	st.cells = 14 * 100
	out := newOutcome()
	rc := &runCfg{info: map[string]any{}}
	st.report(rc, out)
	if rc.info["short_samples"] != nil {
		t.Errorf("full samples reported short: %v", rc.info["short_samples"])
	}
	// 1400 cells over 10 s of campaigns; 1100 requests over 11 s busy.
	if got := out.values["cells_per_s"]; got != 140 {
		t.Errorf("cells_per_s = %v, want 140", got)
	}
	if got := out.values["req_per_s"]; got < 99.999 || got > 100.001 {
		t.Errorf("req_per_s = %v, want 100", got)
	}
	if out.values["campaign_ms_p90"] != 100 || out.values["warm_ms_p95"] != 1 {
		t.Errorf("percentiles = %v", out.values)
	}
}
