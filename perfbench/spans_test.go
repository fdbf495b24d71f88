package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op.x", Parent: -1, Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [30,50]: they cover
		// [10,70] together, not 40+40.
		{Name: "shard.worker", Parent: 0, Start: 10 * ms, End: 50 * ms},
		{Name: "shard.worker", Parent: 0, Start: 30 * ms, End: 70 * ms},
		// A child running past its parent counts only inside it.
		{Name: "shard.merge", Parent: 0, Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its parent's self time, not the root's.
		{Name: "core.analyze", Parent: 1, Start: 20 * ms, End: 25 * ms},
		// An unfinished span is ignored.
		{Name: "core.derive", Parent: 0, Start: 72 * ms, End: -1},
	}
	self := selfTimes(spans)
	want := []time.Duration{30 * ms, 35 * ms, 40 * ms, 30 * ms, 5 * ms, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s) self = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestLayerSelfSumsByLayer(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "core.derive", Parent: -1, Start: 0, End: 3},
		{Name: "core.analyze", Parent: -1, Start: 3, End: 10},
		{Name: "trace.snap_store", Parent: -1, Start: 10, End: 12},
		{Name: "walk.cell", Parent: -1, Start: 0, End: 20},
	}}
	got := tr.layerSelf(func(s span) float64 {
		switch s.layer() {
		case "walk":
			return 0
		case "trace":
			return 10 // the one store stands for ten
		}
		return 1
	})
	if len(got) != 2 || got[0].Layer != "trace" || got[1].Layer != "core" {
		t.Fatalf("layers = %+v", got)
	}
	if math.Abs(got[0].Ms-10*ms(2)) > 1e-12 || math.Abs(got[1].Ms-ms(10)) > 1e-12 {
		t.Errorf("self times = %+v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("core.analyze", 0, -1)
	if id != -1 || tr.end(id) != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
}
