package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
)

// leaseSchema names the lease wire format.
const leaseSchema = "hmpt-lease/v2"

// errLeaseLost reports that a lease was reclaimed out from under its
// holder. The holder's response is defined by the package contract:
// stop renewing, finish the cell anyway (idempotent), let the journal's
// last-write-wins publish reconcile.
var errLeaseLost = errors.New("shard: lease lost")

// leaseRecord is the JSON body of a lease file. Human-readable on
// purpose: a stuck campaign is debugged by reading the leases.
type leaseRecord struct {
	Schema   string `json:"schema"`
	Manifest string `json:"manifest"`
	Cell     int    `json:"cell"`
	Owner    string `json:"owner"`
	Acquired int64  `json:"acquired_unix_nano"`
	Expires  int64  `json:"expires_unix_nano"`
	// Released marks a record its holder let go of: the cell is free to
	// claim at the next generation without waiting for the expiry.
	Released bool `json:"released,omitempty"`
}

// leaseManager claims, renews and releases the leases of one shard
// directory on behalf of one owner.
//
// A cell's leases form a generation chain, <cell>.g1.lease,
// <cell>.g2.lease, ...: the highest generation present is the cell's
// current lease. Every generation is published with an exclusive
// link(2), the one race arbiter — of any number of claimants of a
// generation exactly one creates it — and a lease file is only ever
// written by the worker that created it: renewals rewrite it in place,
// a release marks it released, and nobody else moves or removes it. A
// claimant takes over a free, released, expired or garbage head gN by
// publishing g(N+1), so a generation number is never reused and a
// holder has lost its lease exactly when the next generation exists.
// Only the settled-campaign sweeps (Worker.sweep, Merge) remove lease
// files.
type leaseManager struct {
	fs       faultfs.FS
	dir      string // <shard-dir>/leases
	manifest string
	owner    string
	ttl      time.Duration
	// seq numbers this manager's failure records (attempts).
	seq atomic.Uint64
	// ledger counts renewals and reclaims (nil: none). Acquisitions are
	// counted by the worker, once it goes on to run the claimed cell.
	ledger *core.Ledger
}

func (lm *leaseManager) path(cell, gen int) string {
	return filepath.Join(lm.dir, fmt.Sprintf("%s.g%d.lease", cellName(cell), gen))
}

// lease is one held acquisition: generation gen of the cell's chain.
type lease struct {
	lm   *leaseManager
	cell int
	gen  int
	lost atomic.Bool
}

// tryAcquire attempts to claim the cell. It returns (nil, nil) when the
// cell is leased by a live holder, or when a peer published the next
// generation first — not an error, just not ours — and a lease on
// success. An expired or unparseable head (a dead holder's, or a torn
// write) is taken over like a free one, and counted as a reclaim.
//
// Filesystem errors surface to the caller, which treats them as skips:
// leases partition work, they do not gate correctness.
func (lm *leaseManager) tryAcquire(cell int) (*lease, error) {
	gen := 0
	var head []byte
	for {
		raw, err := lm.fs.ReadFile(lm.path(cell, gen+1))
		if os.IsNotExist(err) {
			break
		}
		if err != nil {
			return nil, err
		}
		gen, head = gen+1, raw
	}
	reclaim := false
	if gen > 0 {
		var rec leaseRecord
		switch {
		case json.Unmarshal(head, &rec) != nil || rec.Schema != leaseSchema || rec.Manifest != lm.manifest:
			reclaim = true // garbage has no expiry to honour
		case rec.Released:
			// Free: its holder let go of the cell.
		case time.Now().UnixNano() < rec.Expires:
			return nil, nil // live holder
		default:
			reclaim = true
		}
	}
	l, err := lm.claim(cell, gen+1)
	if l != nil && reclaim {
		lm.ledger.Add(core.LeaseReclaim)
	}
	return l, err
}

// claim publishes generation gen of the cell's chain with
// create-if-absent semantics; (nil, nil) means another claimant won.
func (lm *leaseManager) claim(cell, gen int) (*lease, error) {
	l := &lease{lm: lm, cell: cell, gen: gen}
	raw, err := l.record(false)
	if err != nil {
		return nil, err
	}
	switch err := fsatomic.PublishExclusiveFS(lm.fs, lm.path(cell, gen), raw); {
	case err == nil:
		return l, nil
	case os.IsExist(err):
		return nil, nil
	default:
		return nil, err
	}
}

// record encodes this lease's record with a fresh TTL.
func (l *lease) record(released bool) ([]byte, error) {
	now := time.Now()
	return json.Marshal(leaseRecord{
		Schema:   leaseSchema,
		Manifest: l.lm.manifest,
		Cell:     l.cell,
		Owner:    l.lm.owner,
		Acquired: now.UnixNano(),
		Expires:  now.Add(l.lm.ttl).UnixNano(),
		Released: released,
	})
}

// owned reports whether this acquisition still holds the cell: its own
// record is intact and unreleased, and the next generation is absent.
func (l *lease) owned() bool {
	raw, err := l.lm.fs.ReadFile(l.lm.path(l.cell, l.gen))
	if err != nil {
		return false
	}
	var rec leaseRecord
	if json.Unmarshal(raw, &rec) != nil || rec.Owner != l.lm.owner || rec.Released {
		return false
	}
	_, err = l.lm.fs.ReadFile(l.lm.path(l.cell, l.gen+1))
	return os.IsNotExist(err)
}

// renew extends the lease by one TTL. A lease found reclaimed reports
// errLeaseLost and marks itself lost — every later renew and the
// release become no-ops. A reclaim landing between the ownership check
// and the rewrite is harmless: the rewrite touches only this
// generation's file, which is no longer the head, and the next
// heartbeat discovers the loss.
func (l *lease) renew() error {
	if l.lost.Load() {
		return errLeaseLost
	}
	if !l.owned() {
		l.lost.Store(true)
		return errLeaseLost
	}
	raw, err := l.record(false)
	if err != nil {
		return err
	}
	if err := fsatomic.PublishFS(l.lm.fs, l.lm.path(l.cell, l.gen), raw); err != nil {
		// A failed renewal is not a lost lease — the record on disk is
		// still ours, just aging toward expiry. The next heartbeat
		// retries.
		return err
	}
	l.lm.ledger.Add(core.LeaseRenewal)
	return nil
}

// release marks the lease released if this acquisition still holds it.
// The record stays in place, so the chain keeps its generations and the
// next claimant publishes the following one.
func (l *lease) release() {
	if l.lost.Load() {
		return
	}
	if l.owned() {
		if raw, err := l.record(true); err == nil {
			// A release that does not land leaves the lease to expire.
			_ = fsatomic.PublishFS(l.lm.fs, l.lm.path(l.cell, l.gen), raw)
		}
	}
	l.lost.Store(true) // the handle is dead either way
}
