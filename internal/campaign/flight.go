package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hmpt/internal/core"
)

// FlightGroup is a single-flight layer over the campaign engine's two
// expensive computations: resolving a capture (kernel execution or
// family derivation) and computing an analysis (probe + sweep). Within
// one group, each key's computation runs at most once — concurrent
// callers of an in-flight key block and share the result, and later
// callers are served from the retained entry without recomputing.
//
// The group is also the engine's only in-process store: besides the
// flights it ran, it retains every disk-cache hit an engine inserted
// (add), and engines probe its completed entries (lookup) before the
// disk caches. An Engine with a nil Flights field creates a private
// group per Run, so sharing is scoped to that run. A process-wide group
// shared across engines (the hmptd serving layer) extends the
// exactly-once guarantee to concurrent requests — N identical requests
// arriving together execute one kernel and one placement sweep no
// matter how they interleave — and serves every later request for a key
// from memory.
//
// Cancellation: every flight owns its own context, independent of any
// caller's, and a reference count of interested callers. A caller whose
// context dies detaches and returns its own ctx.Err() — the computation
// keeps running for the remaining callers, so a cancelled waiter never
// cancels the leader, and a cancelled leader implicitly hands the
// flight off to whichever waiters remain (the computation goroutine
// does not care who started it). Only when the *last* interested caller
// detaches is the flight's context cancelled, aborting the computation
// cooperatively; the flight is then forgotten so later callers retry
// fresh.
//
// Work accounting: a flight's context carries the ledger of the caller
// that started it (core.LedgerFrom), so the computation's work is
// counted on that caller's ledger — and on its ancestors — even when
// the caller detached and a waiter saw the flight through. Every caller
// served from another caller's flight, in flight or retained, counts
// one core.Coalesced on its own ledger instead.
//
// Panics inside a flight's computation are recovered into an error
// (a core.RecoveredPanic on the flight's ledger): a poisoned
// computation fails its callers, not the process.
//
// Successful entries are retained for the life of the group: there is
// no byte budget and no eviction, so a long-lived group grows with the
// number of distinct keys it has served. Failed, cancelled and panicked
// flights are forgotten on completion: concurrent waiters share the
// error, but later callers retry rather than being pinned to a
// transient failure forever.
type FlightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	waiters atomic.Int64
	// inFlight and retained back the gauges of the same names, kept
	// current as flights start, complete and are forgotten so that a
	// metrics scrape never walks the map under mu.
	inFlight atomic.Int64
	retained atomic.Int64
}

// flight is one keyed computation: done closes when the computation
// goroutine returns, after val/flag/err are set. refs counts the
// callers currently interested in the result (guarded by the group
// mutex); cancel aborts the computation's context when refs drops to
// zero.
type flight struct {
	done chan struct{}
	val  any
	flag bool
	err  error

	cancel context.CancelFunc
	refs   int
}

// NewFlightGroup returns an empty group, ready to be shared by any
// number of engines.
func NewFlightGroup() *FlightGroup {
	return &FlightGroup{flights: make(map[string]*flight)}
}

// do runs fn once per key: the first caller starts the computation in
// its own goroutine, everyone else is served from the in-flight or
// retained entry (shared=true, a core.Coalesced on the caller's
// ledger). fn receives the *flight's* context — alive while any caller
// remains interested, and carrying the first caller's ledger — not any
// single caller's. flag carries a small per-entry fact the callers
// share: true for entries add retained (the value was served from a
// cache), and whatever fn returned otherwise.
//
// When ctx dies before the result is ready the caller detaches with
// ctx.Err(); see the FlightGroup doc for the detach/handoff/abort
// semantics.
func (g *FlightGroup) do(ctx context.Context, key string, fn func(context.Context) (any, bool, error)) (val any, flag bool, shared bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, false, err
	}
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if f, ok := g.flights[key]; ok {
		select {
		case <-f.done:
			// Retained entry: serve immediately.
			g.mu.Unlock()
			core.LedgerFrom(ctx).Add(core.Coalesced)
			return f.val, f.flag, true, f.err
		default:
		}
		f.refs++
		g.mu.Unlock()
		return g.wait(ctx, f, true)
	}
	fctx, cancel := context.WithCancel(core.WithLedger(context.Background(), core.LedgerFrom(ctx)))
	f := &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
	g.flights[key] = f
	g.inFlight.Add(1)
	g.mu.Unlock()
	go g.run(key, f, fctx, fn)
	return g.wait(ctx, f, false)
}

// run executes one flight's computation, recovering panics into errors
// and forgetting failed flights before releasing the waiters — a caller
// that arrives after the delete starts a fresh attempt instead of being
// served a stale error.
func (g *FlightGroup) run(key string, f *flight, fctx context.Context, fn func(context.Context) (any, bool, error)) {
	defer func() {
		if r := recover(); r != nil {
			core.LedgerFrom(fctx).Add(core.RecoveredPanic)
			f.val, f.flag = nil, false
			f.err = fmt.Errorf("campaign: computation %q panicked: %v", key, r)
		}
		f.cancel() // release the flight context's resources
		if f.err != nil {
			g.mu.Lock()
			if g.flights[key] == f {
				delete(g.flights, key)
			}
			g.mu.Unlock()
		} else {
			g.retained.Add(1)
		}
		g.inFlight.Add(-1)
		close(f.done)
	}()
	f.val, f.flag, f.err = fn(fctx)
}

// wait blocks until the flight completes or the caller's context dies,
// whichever comes first. joined marks a caller served by someone else's
// flight (counted as a waiter while blocked, and as a core.Coalesced on
// its ledger on success).
func (g *FlightGroup) wait(ctx context.Context, f *flight, joined bool) (any, bool, bool, error) {
	if joined {
		g.waiters.Add(1)
		defer g.waiters.Add(-1)
	}
	select {
	case <-f.done:
		if joined {
			core.LedgerFrom(ctx).Add(core.Coalesced)
		}
		return f.val, f.flag, joined, f.err
	case <-ctx.Done():
		g.detach(f)
		return nil, false, joined, ctx.Err()
	}
}

// detach drops one caller's interest in the flight; the last caller out
// cancels the computation's context, aborting it cooperatively.
func (g *FlightGroup) detach(f *flight) {
	g.mu.Lock()
	f.refs--
	last := f.refs == 0
	g.mu.Unlock()
	if last {
		f.cancel()
	}
}

// lookup returns the value of key's successfully completed entry. An
// entry still in flight is a miss: lookup never waits and never counts
// as coalescing. So is a failed one — run forgets a failure before
// closing done, but lookup may have read the entry from the map just
// before that, and f.err is safe to read once done is closed.
func (g *FlightGroup) lookup(key string) (any, bool) {
	g.mu.Lock()
	f, ok := g.flights[key]
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-f.done:
		if f.err != nil {
			return nil, false
		}
		return f.val, true
	default:
		return nil, false
	}
}

// add retains val as key's completed entry, flagged as served from a
// cache, unless the group already holds an entry for key (in flight or
// completed).
func (g *FlightGroup) add(key string, val any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.flights[key]; ok {
		return
	}
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	f := &flight{done: make(chan struct{}), val: val, flag: true}
	close(f.done)
	g.flights[key] = f
	g.retained.Add(1)
}

// InFlight returns the number of computations currently executing in
// the group — the serving layer's queue-visibility gauge.
func (g *FlightGroup) InFlight() int { return int(g.inFlight.Load()) }

// Waiters returns the number of callers currently blocked on another
// caller's in-flight computation.
func (g *FlightGroup) Waiters() int { return int(g.waiters.Load()) }

// Retained returns the number of completed entries the group holds:
// finished flights and retained cache hits alike.
func (g *FlightGroup) Retained() int { return int(g.retained.Load()) }
