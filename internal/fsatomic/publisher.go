package fsatomic

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hmpt/internal/faultfs"
)

// ErrDegraded is returned by Publisher.Publish while the publisher is in
// degraded (read-only) mode and the re-probe interval has not elapsed.
// Callers treat it exactly like any other publish failure — the cache
// rung absorbs it as a non-fatal store error — but it is cheap: no
// filesystem operation is attempted.
var ErrDegraded = errors.New("fsatomic: publisher degraded, writes suspended")

// PublisherStats counts the resilience decisions a Publisher has made.
type PublisherStats struct {
	// Retries counts individual retry attempts after a transient failure.
	Retries int64
	// Absorbed counts publishes that failed transiently but succeeded on
	// a retry — faults the policy hid from the caller entirely.
	Absorbed int64
	// Demotions counts transitions into degraded mode.
	Demotions int64
	// Reprobes counts re-probe attempts made while degraded.
	Reprobes int64
	// Recoveries counts re-probes that succeeded and cleared degraded
	// mode.
	Recoveries int64
	// Suppressed counts publishes fast-failed with ErrDegraded without
	// touching the filesystem.
	Suppressed int64
}

// Publisher wraps PublishFS with the write-path resilience policy both
// on-disk caches share:
//
//   - transient errors (anything but ENOSPC) are retried with doubling
//     backoff up to Retries times — a flaky device gets another chance;
//   - ENOSPC is persistent — no retry can help a full disk — and demotes
//     the publisher to degraded mode immediately, as does exhausting the
//     retry budget;
//   - while degraded, Publish fast-fails with ErrDegraded (read-only /
//     compute-through: the caches keep serving reads and the engine keeps
//     computing, it just stops persisting) until ReprobeAfter elapses,
//     when exactly one caller is admitted for a real attempt; success
//     clears degraded mode, failure re-arms the probe timer.
//
// The zero value is usable: real filesystem, default retry budget and
// intervals. Publisher is safe for concurrent use.
type Publisher struct {
	// FS is the filesystem publishes go through; nil means the real one.
	FS faultfs.FS
	// Retries is the number of retry attempts after a transient failure
	// (<0 disables retries; 0 means the default of 2).
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt
	// (0 means the default of 1ms).
	Backoff time.Duration
	// ReprobeAfter is how long degraded mode fast-fails before admitting
	// a probe attempt (0 means the default of 5s).
	ReprobeAfter time.Duration

	degraded atomic.Bool

	mu        sync.Mutex
	nextProbe time.Time

	retries    atomic.Int64
	absorbed   atomic.Int64
	demotions  atomic.Int64
	reprobes   atomic.Int64
	recoveries atomic.Int64
	suppressed atomic.Int64
}

func (p *Publisher) fs() faultfs.FS {
	if p.FS == nil {
		return faultfs.OS
	}
	return p.FS
}

func (p *Publisher) retryBudget() int {
	if p.Retries < 0 {
		return 0
	}
	if p.Retries == 0 {
		return 2
	}
	return p.Retries
}

func (p *Publisher) backoff() time.Duration {
	if p.Backoff <= 0 {
		return time.Millisecond
	}
	return p.Backoff
}

func (p *Publisher) reprobeAfter() time.Duration {
	if p.ReprobeAfter <= 0 {
		return 5 * time.Second
	}
	return p.ReprobeAfter
}

// Degraded reports whether the publisher is in degraded (read-only)
// mode.
func (p *Publisher) Degraded() bool { return p.degraded.Load() }

// Stats returns the resilience counters accumulated so far.
func (p *Publisher) Stats() PublisherStats {
	return PublisherStats{
		Retries:    p.retries.Load(),
		Absorbed:   p.absorbed.Load(),
		Demotions:  p.demotions.Load(),
		Reprobes:   p.reprobes.Load(),
		Recoveries: p.recoveries.Load(),
		Suppressed: p.suppressed.Load(),
	}
}

// persistent classifies a publish error: ENOSPC cannot be retried away.
func persistent(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// demote flips the publisher into degraded mode and arms the probe
// timer.
func (p *Publisher) demote() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.degraded.Load() {
		p.degraded.Store(true)
		p.demotions.Add(1)
	}
	p.nextProbe = time.Now().Add(p.reprobeAfter())
}

// admitProbe reports whether this degraded-mode caller may make a real
// attempt, claiming the probe slot (and re-arming the timer) if so.
func (p *Publisher) admitProbe() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Now().Before(p.nextProbe) {
		return false
	}
	p.nextProbe = time.Now().Add(p.reprobeAfter())
	return true
}

// attempt is one publish attempt: PublishFS, and when path's directory
// does not exist yet, creating it and publishing again. Creating the
// directory inside the attempt puts it under the resilience policy like
// every other write: a failed mkdir is retried and counted, and nothing
// is created while the publisher is degraded.
func (p *Publisher) attempt(path string, data []byte) error {
	err := PublishFS(p.fs(), path, data)
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := p.fs().MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("fsatomic: creating directory of %s: %w", filepath.Base(path), err)
	}
	return PublishFS(p.fs(), path, data)
}

// Publish atomically writes data to path under the resilience policy,
// creating path's directory if needed.
func (p *Publisher) Publish(path string, data []byte) error {
	if p.degraded.Load() {
		if !p.admitProbe() {
			p.suppressed.Add(1)
			return ErrDegraded
		}
		p.reprobes.Add(1)
		err := p.attempt(path, data)
		if err != nil {
			p.demote() // re-arm the timer on the failure path too
			return fmt.Errorf("%w (re-probe failed: %v)", ErrDegraded, err)
		}
		p.degraded.Store(false)
		p.recoveries.Add(1)
		return nil
	}

	err := p.attempt(path, data)
	if err == nil {
		return nil
	}
	if persistent(err) {
		p.demote()
		return err
	}
	delay := p.backoff()
	for attempt := 0; attempt < p.retryBudget(); attempt++ {
		time.Sleep(delay)
		delay *= 2
		p.retries.Add(1)
		err = p.attempt(path, data)
		if err == nil {
			p.absorbed.Add(1)
			return nil
		}
		if persistent(err) {
			break
		}
	}
	p.demote()
	return err
}
