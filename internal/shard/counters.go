package shard

import "sync/atomic"

// Process-wide shard counters, exported read-only for the facade and
// the daemon's metrics registry: every lease manager, journal and
// worker in the process feeds the same counters, so a daemon hosting
// shard workers exposes fleet-visible gauges without plumbing. The
// pipeline's own work is counted per run instead, on the core.Ledger
// the run's context carries.
var (
	leasesAcquired  atomic.Int64
	leasesReclaimed atomic.Int64
	leaseRenewals   atomic.Int64
	leasesLost      atomic.Int64
	leasesReleased  atomic.Int64
	activeLeases    atomic.Int64
	leaseErrors     atomic.Int64

	cellsJournaled  atomic.Int64
	journalSkips    atomic.Int64
	journalInvalid  atomic.Int64
	cellFailures    atomic.Int64
	cellsQuarantine atomic.Int64
)

// LeasesAcquired counts successful lease claims (fresh and reclaimed).
func LeasesAcquired() int64 { return leasesAcquired.Load() }

// LeasesReclaimed counts expired (or unparseable) leases taken over
// from a dead or stalled holder by publishing the next generation —
// each one is a crash (or a stall past TTL) the fleet absorbed.
func LeasesReclaimed() int64 { return leasesReclaimed.Load() }

// LeaseRenewals counts heartbeat renewals.
func LeaseRenewals() int64 { return leaseRenewals.Load() }

// LeasesLost counts leases a holder discovered it no longer owned at
// renewal or release time (reclaimed out from under it). The holder
// finishes its cell anyway — execution is idempotent — but stops
// renewing.
func LeasesLost() int64 { return leasesLost.Load() }

// LeasesReleased counts clean releases after a cell completed or
// failed.
func LeasesReleased() int64 { return leasesReleased.Load() }

// ActiveLeases gauges the leases this process currently holds.
func ActiveLeases() int64 { return activeLeases.Load() }

// LeaseErrors counts lease-layer filesystem errors absorbed as skips —
// leases are advisory, so an unreadable lease file costs a poll round,
// never correctness.
func LeaseErrors() int64 { return leaseErrors.Load() }

// CellsJournaled counts completion records this process published.
func CellsJournaled() int64 { return cellsJournaled.Load() }

// JournalSkips counts cells observed journaled-complete by someone
// else — work a resume or a peer avoided recomputing.
func JournalSkips() int64 { return journalSkips.Load() }

// JournalInvalid counts journal records that failed validation (torn
// writes, wrong campaign) and were treated as incomplete.
func JournalInvalid() int64 { return journalInvalid.Load() }

// CellFailures counts cell executions that ended in error and were
// recorded for retry.
func CellFailures() int64 { return cellFailures.Load() }

// CellsQuarantined counts cells moved to quarantine after exhausting
// their retry budget.
func CellsQuarantined() int64 { return cellsQuarantine.Load() }
