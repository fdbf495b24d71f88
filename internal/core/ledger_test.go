package core

import (
	"context"
	"sync"
	"testing"
)

// TestLedgerCountsIntoAncestors: an add reaches the ledger and every
// ancestor, never a sibling, and a nil ledger absorbs adds.
func TestLedgerCountsIntoAncestors(t *testing.T) {
	t.Parallel()
	root := NewLedger(nil)
	a, b := NewLedger(root), NewLedger(root)
	leaf := NewLedger(a)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); leaf.Add(Kernel) }()
		go func() { defer wg.Done(); b.Add(Coalesced) }()
	}
	wg.Wait()
	var none *Ledger
	none.Add(SamplePass)

	if got, want := leaf.Work(), (Work{Kernels: 100}); got != want {
		t.Errorf("leaf %+v, want %+v", got, want)
	}
	if got, want := a.Work(), (Work{Kernels: 100}); got != want {
		t.Errorf("parent %+v, want %+v", got, want)
	}
	if got, want := b.Work(), (Work{Coalesced: 100}); got != want {
		t.Errorf("sibling %+v, want %+v", got, want)
	}
	if got, want := root.Work(), (Work{Kernels: 100, Coalesced: 100}); got != want {
		t.Errorf("root %+v, want %+v", got, want)
	}
	if got := none.Work(); got != (Work{}) {
		t.Errorf("nil ledger %+v, want zero", got)
	}
}

// TestLedgerTravelsOnContext: WithLedger attaches, LedgerFrom reads it
// back, and a context without one yields nil.
func TestLedgerTravelsOnContext(t *testing.T) {
	t.Parallel()
	l := NewLedger(nil)
	ctx, cancel := context.WithCancel(WithLedger(context.Background(), l))
	defer cancel()
	if LedgerFrom(ctx) != l {
		t.Error("LedgerFrom lost the attached ledger")
	}
	if LedgerFrom(context.Background()) != nil {
		t.Error("LedgerFrom invented a ledger")
	}
}

// TestLedgerCountReadsEveryEvent: Count reads any event on the ledger
// and its ancestors, shard events stay out of Work (whose fields are
// the pipeline's), and a nil ledger counts zero.
func TestLedgerCountReadsEveryEvent(t *testing.T) {
	t.Parallel()
	root := NewLedger(nil)
	leaf := NewLedger(root)
	leaf.Add(Kernel)
	leaf.Add(LeaseAcquired)
	leaf.Add(LeaseAcquired)
	leaf.Add(CellFailure)
	for _, l := range []*Ledger{leaf, root} {
		if got := [...]int64{l.Count(Kernel), l.Count(LeaseAcquired), l.Count(CellFailure), l.Count(JournalSkip)}; got != [...]int64{1, 2, 1, 0} {
			t.Errorf("counts %v, want [1 2 1 0]", got)
		}
		if got, want := l.Work(), (Work{Kernels: 1}); got != want {
			t.Errorf("work %+v, want %+v", got, want)
		}
	}
	var none *Ledger
	if none.Count(LeaseAcquired) != 0 {
		t.Error("nil ledger counted")
	}
}
