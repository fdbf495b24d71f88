package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hmpt/internal/workloads/synth"
)

// TestAnalyzeContextPreCancelled: a dead context stops the pipeline
// before any work — no kernel execution, no sampling pass, no sweep.
func TestAnalyzeContextPreCancelled(t *testing.T) {
	led := NewLedger(nil)
	ctx, cancel := context.WithCancel(WithLedger(context.Background(), led))
	cancel()
	an, err := New(synth.Default(), Options{Seed: 42}).AnalyzeContext(ctx)
	if !errors.Is(err, context.Canceled) || an != nil {
		t.Fatalf("AnalyzeContext = (%v, %v), want (nil, context.Canceled)", an, err)
	}
	if w := led.Work(); w.Kernels != 0 || w.SamplePasses != 0 || w.SweepEvaluations != 0 {
		t.Errorf("cancelled analysis still did work: kernels %+d, passes %+d, sweeps %+d",
			w.Kernels, w.SamplePasses, w.SweepEvaluations)
	}
}

// TestCaptureContextPreCancelled: a dead context skips the capture
// entirely — the kernel never runs.
func TestCaptureContextPreCancelled(t *testing.T) {
	led := NewLedger(nil)
	ctx, cancel := context.WithCancel(WithLedger(context.Background(), led))
	cancel()
	snap, err := CaptureContext(ctx, synth.Default(), Options{Seed: 42})
	if !errors.Is(err, context.Canceled) || snap != nil {
		t.Fatalf("CaptureContext = (%v, %v), want (nil, context.Canceled)", snap, err)
	}
	if got := led.Work().Kernels; got != 0 {
		t.Errorf("cancelled capture executed %d kernels", got)
	}
}

// TestAnalyzeContextBackgroundIdentical: threading a live context
// through the pipeline changes nothing — the result is byte-identical
// to the context-free path.
func TestAnalyzeContextBackgroundIdentical(t *testing.T) {
	plain, err := New(synth.Default(), Options{Seed: 42}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := New(synth.Default(), Options{Seed: 42}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withCtx) {
		t.Error("AnalyzeContext(Background()) diverges from Analyze()")
	}
}
