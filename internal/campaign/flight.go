package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"hmpt/internal/core"
	"hmpt/internal/shim"
	"hmpt/internal/units"
)

// FlightGroup is a single-flight layer over the campaign engine's two
// expensive computations: resolving a capture (kernel execution or
// family derivation) and computing an analysis (probe + sweep). Within
// one group, each key's computation runs at most once while its entry
// is held — concurrent callers of an in-flight key block and share the
// result, and later callers are served from the retained entry without
// recomputing.
//
// The group is also the engine's only in-process store: besides the
// flights it ran, it retains the disk-cache hits an engine inserted
// (add), and engines probe its completed entries (lookup) before the
// disk caches. An Engine with a nil Flights field creates a private
// group per Run, so sharing is scoped to that run. A process-wide group
// shared across engines (the hmptd serving layer) extends the
// exactly-once guarantee to concurrent requests — N identical requests
// arriving together execute one kernel and one placement sweep no
// matter how they interleave — and serves later requests for a key from
// memory until the key is evicted (see Retention below).
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
// Retention: successful entries sit on a recency list, most recently
// used first; a hit (do, lookup, or add of a key already held) moves
// its entry to the front without allocating. A group made by
// NewBoundedFlightGroup charges every completed entry an estimate of
// the heap it retains (entryBytes) and evicts from the back of the list
// until the charges fit its byte budget; an entry larger than the whole
// budget is handed to its callers but not retained. A capture entry's
// replay context grows as analyses replay it, so the engine re-reads
// its charge after each one (recharge), evicting the same way. An
// evicted key is a miss like any other, so the engine falls through to
// the disk rungs exactly as a cold process would. Callers holding an evicted entry —
// a waiter that attached before the eviction, a run that adopted the
// value — keep it: eviction only forgets the key. Entries still in
// flight are never charged and never evicted. A NewFlightGroup group
// has no budget and keeps every success for its life, which suits the
// engine's private per-run groups. Failed, cancelled and panicked
// flights are forgotten on completion either way: concurrent waiters
// share the error, but later callers retry rather than being pinned to
// a transient failure forever.
type FlightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	// lru is the sentinel of the recency list of completed entries:
	// lru.next is the most recently used, lru.prev the next to evict.
	// used is the sum of the listed entries' charges. Both are guarded
	// by mu.
	lru  flight
	used int64
	// budget bounds used; 0 means unbounded. sizeOf estimates the heap
	// a completed value retains (entryBytes; tests substitute their
	// own).
	budget int64
	sizeOf func(any) int64

	waiters atomic.Int64
	// inFlight, retained and evictions back the gauges and counter of
	// the same names, kept current as entries start, complete, are
	// evicted and are forgotten, so that a metrics scrape never walks
	// the map or takes mu. retained is the length of the recency list.
	inFlight  atomic.Int64
	retained  atomic.Int64
	evictions atomic.Int64
}

// flight is one keyed computation: done closes when the computation
// goroutine returns, after val/flag/err are set. refs counts the
// callers currently interested in the result (guarded by the group
// mutex); cancel aborts the computation's context when refs drops to
// zero. prev/next link a completed entry into the group's recency list
// and bytes is its charge, all guarded by the group mutex; prev is nil
// while the entry is not listed.
type flight struct {
	key  string
	done chan struct{}
	val  any
	flag bool
	err  error

	cancel context.CancelFunc
	refs   int

	prev, next *flight
	bytes      int64
}

// NewFlightGroup returns an empty unbounded group, ready to be shared
// by any number of engines.
func NewFlightGroup() *FlightGroup {
	return &FlightGroup{flights: make(map[string]*flight)}
}

// NewBoundedFlightGroup returns an empty group that keeps its completed
// entries under a budget of the given number of bytes (see
// FlightGroup). A budget ≤ 0 is unbounded, like NewFlightGroup.
func NewBoundedFlightGroup(budget int64) *FlightGroup {
	g := NewFlightGroup()
	if budget > 0 {
		g.budget, g.sizeOf = budget, entryBytes
	}
	return g
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
			g.touch(f)
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
	f := &flight{key: key, done: make(chan struct{}), cancel: cancel, refs: 1}
	g.flights[key] = f
	g.inFlight.Add(1)
	g.mu.Unlock()
	go g.run(key, f, fctx, fn)
	return g.wait(ctx, f, false)
}

// run executes one flight's computation, recovering panics into errors.
// Before releasing the waiters it retains a success and forgets a
// failure — a caller that arrives after the delete starts a fresh
// attempt instead of being served a stale error.
func (g *FlightGroup) run(key string, f *flight, fctx context.Context, fn func(context.Context) (any, bool, error)) {
	defer func() {
		if r := recover(); r != nil {
			core.LedgerFrom(fctx).Add(core.RecoveredPanic)
			f.val, f.flag = nil, false
			f.err = fmt.Errorf("campaign: computation %q panicked: %v", key, r)
		}
		f.cancel() // release the flight context's resources
		g.mu.Lock()
		if f.err != nil {
			g.forget(f)
		} else {
			g.retain(f)
		}
		g.mu.Unlock()
		g.inFlight.Add(-1)
		close(f.done)
	}()
	f.val, f.flag, f.err = fn(fctx)
}

// retain lists a completed entry as the most recently used, charging
// it against the budget, then evicts least recently used entries until
// the charges fit. An entry larger than the whole budget is forgotten
// instead: its callers have it, later ones fall through. Caller holds
// mu.
func (g *FlightGroup) retain(f *flight) {
	if g.lru.next == nil {
		g.lru.prev, g.lru.next = &g.lru, &g.lru
	}
	if g.budget > 0 {
		f.bytes = int64(len(f.key)) + entryOverhead + g.sizeOf(f.val)
		if f.bytes > g.budget {
			g.forget(f)
			return
		}
	}
	f.prev, f.next = &g.lru, g.lru.next
	f.prev.next, f.next.prev = f, f
	g.used += f.bytes
	g.retained.Add(1)
	for g.budget > 0 && g.used > g.budget {
		// The loop stops before it reaches f: f alone fits the budget.
		g.evict(g.lru.prev)
	}
}

// recharge re-reads the charge of key's listed entry, whose value may
// have grown since it was retained — a capture's replay context
// memoises a sampling report and compiled evaluators per platform that
// replays it — and evicts as retain does: the entry itself when it
// alone outgrows the budget, then least recently used entries until the
// charges fit. An unbounded group, or a key not listed, is left alone.
func (g *FlightGroup) recharge(key string) {
	if g.budget <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.flights[key]
	if !ok || f.prev == nil {
		return
	}
	bytes := int64(len(f.key)) + entryOverhead + g.sizeOf(f.val)
	g.used += bytes - f.bytes
	f.bytes = bytes
	if f.bytes > g.budget {
		g.evict(f)
	}
	for g.used > g.budget {
		g.evict(g.lru.prev)
	}
}

// touch moves a listed entry to the front of the recency list. Caller
// holds mu.
func (g *FlightGroup) touch(f *flight) {
	if f.prev == nil || f.prev == &g.lru {
		return // not listed, or already the most recent
	}
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = &g.lru, g.lru.next
	f.prev.next, f.next.prev = f, f
}

// evict unlinks a listed entry and forgets its key. Caller holds mu.
func (g *FlightGroup) evict(f *flight) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
	g.used -= f.bytes
	g.forget(f)
	g.retained.Add(-1)
	g.evictions.Add(1)
}

// forget drops key's map entry if it is still f. Caller holds mu.
func (g *FlightGroup) forget(f *flight) {
	if g.flights[f.key] == f {
		delete(g.flights, f.key)
	}
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

// lookup returns the value of key's successfully completed entry,
// marking it the most recently used. An entry still in flight is a
// miss: lookup never waits and never counts as coalescing. So is a
// failed one — run forgets a failure before closing done, so a failed
// entry is only ever seen here in flight, but the check keeps lookup
// correct whatever the map holds.
func (g *FlightGroup) lookup(key string) (any, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.flights[key]
	if !ok {
		return nil, false
	}
	select {
	case <-f.done:
		if f.err != nil {
			return nil, false
		}
		g.touch(f)
		return f.val, true
	default:
		return nil, false
	}
}

// add retains val as key's completed entry, flagged as served from a
// cache, unless the group already holds an entry for key: a completed
// one is marked the most recently used instead, one in flight is left
// alone.
func (g *FlightGroup) add(key string, val any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		g.touch(f)
		return
	}
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	f := &flight{key: key, done: make(chan struct{}), val: val, flag: true}
	close(f.done)
	g.flights[key] = f
	g.retain(f)
}

// InFlight returns the number of computations currently executing in
// the group — the serving layer's queue-visibility gauge.
func (g *FlightGroup) InFlight() int { return int(g.inFlight.Load()) }

// Waiters returns the number of callers currently blocked on another
// caller's in-flight computation.
func (g *FlightGroup) Waiters() int { return int(g.waiters.Load()) }

// Retained returns the number of completed entries the group holds —
// finished flights and retained cache hits alike: the length of its
// recency list.
func (g *FlightGroup) Retained() int { return int(g.retained.Load()) }

// Evictions returns the number of completed entries the group has
// evicted to stay within its budget.
func (g *FlightGroup) Evictions() int64 { return g.evictions.Load() }

// Entry charges. A retained entry is charged an estimate of the heap it
// keeps alive, not its encoded size: decoded values and their replay
// machinery are several times larger than their bytes on disk.
const (
	// entryOverhead covers a retained entry's flight, done channel and
	// map slot; retain adds the key's bytes.
	entryOverhead = int64(unsafe.Sizeof(flight{})) + 96 + 64
	// captureBytesPerEncoded is what a capture entry retains per byte
	// of its snapshot's encoding before any analysis replays it: the
	// snapshot and its replay context's restored registry and trace
	// copy. Measured over Table I × 16 seeds, a decoded snapshot with
	// its fresh context ran 1.9–2.5× its encoding; a freshly captured
	// snapshot can hold about 1× more.
	captureBytesPerEncoded = 3
)

// entryBytes is a bounded group's charge for a completed value: an
// analysis by its decoded layout, a capture by its snapshot's encoded
// length scaled to cover its replay context, plus what that context has
// memoised so far (core.ReplayContext.MemoBytes: 0.78–0.95× the
// measured heap of the reports and evaluators, over Table I on both
// platform presets). The engine recharges a capture entry after each
// analysis that replays it. Any other value is charged nothing beyond
// the entry overhead.
func entryBytes(val any) int64 {
	switch v := val.(type) {
	case *core.Analysis:
		return analysisBytes(v)
	case capOutcome:
		return captureBytesPerEncoded*int64(v.snap.EncodedLen()) + v.ctx.MemoBytes()
	}
	return 0
}

// analysisBytes estimates the heap an analysis retains: its structs,
// their slices and their strings, as laid out in memory. Allocator size
// classes round the real footprint up: over Table I the estimate is
// 0.73–0.95× a decoded analysis's measured heap.
func analysisBytes(an *core.Analysis) int64 {
	n := int(unsafe.Sizeof(*an)) + len(an.Workload) + len(an.Platform)
	for i := range an.Groups {
		g := &an.Groups[i]
		n += int(unsafe.Sizeof(*g)) + len(g.Label) + int(unsafe.Sizeof(shim.AllocID(0)))*len(g.Allocs)
	}
	for i := range an.Configs {
		c := &an.Configs[i]
		n += int(unsafe.Sizeof(*c)) + len(c.Label) + int(unsafe.Sizeof(0))*len(c.Groups) + int(unsafe.Sizeof(units.Duration(0)))*len(c.Times)
	}
	return int64(n)
}
