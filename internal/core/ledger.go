package core

import (
	"context"
	"sync/atomic"
)

// Event is one kind of work a Ledger counts: pipeline work first, then
// the shard coordination events a shard worker counts on its own ledger,
// then codec work.
type Event int

const (
	Kernel          Event = iota // a real kernel execution (live reference run or Capture)
	SamplePass                   // a sampling pass; replaying embedded counts is not one
	SweepEvaluation              // a placement-costing pass: one probe stage or one 2^|AG| sweep
	CountWalk                    // a validation walk of embedded counts (once per ReplayContext)
	Derivation                   // a snapshot derived from a family sibling, not captured
	SeedDerivation               // a Derivation across seeds (also counted as a Derivation)
	Coalesced                    // a computation served from another caller's flight entry
	RecoveredPanic               // a panic recovered inside a campaign computation

	LeaseAcquired  // a shard lease claimed, fresh or reclaimed, to run its cell
	LeaseRenewal   // a shard lease heartbeat renewal
	LeaseReclaim   // an expired or unparseable shard lease taken over
	CellJournaled  // a shard cell's completion record published
	JournalSkip    // a shard cell found journaled by someone else
	JournalInvalid // a journal record that failed validation, read as incomplete
	CellFailure    // a failed shard cell attempt

	AnalysisDecode // an analysis body decoded out of a shard journal record
	numEvents
)

// Ledger counts the pipeline work done on behalf of one run. It travels
// on the run's context (WithLedger), so every counting site attributes
// its work to whoever asked for it, and concurrent runs never see each
// other's counts. Every Add also reaches the ledger's parent, so a
// parent shared by many runs (the daemon's process total) stays exact
// even for work a cancelled run left to finish in a shared flight.
// A nil *Ledger counts nothing. A Ledger is safe for concurrent use.
type Ledger struct {
	parent *Ledger
	n      [numEvents]atomic.Int64
}

// NewLedger returns an empty ledger whose adds also reach parent (nil
// for none).
func NewLedger(parent *Ledger) *Ledger { return &Ledger{parent: parent} }

// Add counts one event on l and each of its ancestors.
func (l *Ledger) Add(e Event) {
	for ; l != nil; l = l.parent {
		l.n[e].Add(1)
	}
}

// Count returns the ledger's count of e so far.
func (l *Ledger) Count(e Event) int64 {
	if l == nil {
		return 0
	}
	return l.n[e].Load()
}

// Work returns the ledger's pipeline counts so far.
func (l *Ledger) Work() Work {
	if l == nil {
		return Work{}
	}
	return Work{
		Kernels:          l.n[Kernel].Load(),
		SamplePasses:     l.n[SamplePass].Load(),
		SweepEvaluations: l.n[SweepEvaluation].Load(),
		CountWalks:       l.n[CountWalk].Load(),
		Derived:          l.n[Derivation].Load(),
		SeedDerived:      l.n[SeedDerivation].Load(),
		Coalesced:        l.n[Coalesced].Load(),
		RecoveredPanics:  l.n[RecoveredPanic].Load(),
	}
}

// Work is a plain copy of a ledger's pipeline counts, one field per
// pipeline Event.
type Work struct {
	Kernels          int64 `json:"kernels"`
	SamplePasses     int64 `json:"sample_passes"`
	SweepEvaluations int64 `json:"sweep_evaluations"`
	CountWalks       int64 `json:"count_walks"`
	Derived          int64 `json:"derived"`
	SeedDerived      int64 `json:"seed_derived"`
	Coalesced        int64 `json:"coalesced"`
	RecoveredPanics  int64 `json:"recovered_panics"`
}

type ledgerKey struct{}

// WithLedger returns ctx carrying l: pipeline work done under the
// returned context is counted on l.
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	return context.WithValue(ctx, ledgerKey{}, l)
}

// LedgerFrom returns the ledger ctx carries, nil when it carries none.
func LedgerFrom(ctx context.Context) *Ledger {
	l, _ := ctx.Value(ledgerKey{}).(*Ledger)
	return l
}
