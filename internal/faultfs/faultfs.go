// Package faultfs abstracts the filesystem surface the cache tree uses
// and provides a deterministic, seed-driven fault injector over it.
//
// Every on-disk cache rung (the snapshot cache, the analysis cache, the
// family index) and the atomic-publish layer perform their filesystem
// operations through the FS interface. Production wires the passthrough
// OS implementation; resilience tests and the chaos-smoke CI job wrap it
// in an Injector whose schedule of EIO, ENOSPC, latency and torn-write
// faults is a pure function of its seed — the same seed replays the same
// fault sequence, so a chaos run that found a bug is reproducible.
//
// Faults carry the real errno (syscall.EIO, syscall.ENOSPC) wrapped in a
// descriptive error, so the resilience policies above this layer can
// classify transient vs persistent failures exactly as they would
// against a real degraded disk.
package faultfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hmpt/internal/xrand"
)

// FS is the filesystem surface of the cache tree: exactly the operations
// the snapshot cache, the analysis cache, the family index, the shard
// lease/journal tree and the atomic-publish layer perform, and nothing
// more — a deliberately small interface so the injector covers every
// path that can fail.
type FS interface {
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp mirrors os.CreateTemp: a uniquely named file in dir.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// Link mirrors os.Link: it fails with an os.IsExist error when
	// newpath already exists, which is the one POSIX primitive that
	// makes create-if-absent atomic across processes — the shard lease
	// claim protocol is built on it.
	Link(oldpath, newpath string) error
	// Stat mirrors os.Stat; the GC and stale-file sweeps age-check
	// entries through it.
	Stat(path string) (os.FileInfo, error)
}

// File is the staging-file surface Publish needs.
type File interface {
	io.Writer
	Close() error
	Name() string
}

// OS is the passthrough FS: the real filesystem, no faults.
var OS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Link(oldpath, newpath string) error           { return os.Link(oldpath, newpath) }
func (osFS) Stat(path string) (os.FileInfo, error)        { return os.Stat(path) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadCounter is a passthrough FS that counts the ReadFile calls whose
// path has the extension Ext (".member", ".snap"): the seam tests and
// benchmarks pin a lookup's read count through.
type ReadCounter struct {
	FS
	Ext   string
	reads atomic.Int64
}

// ReadFile counts the read when its extension matches, then passes it
// through.
func (c *ReadCounter) ReadFile(path string) ([]byte, error) {
	if filepath.Ext(path) == c.Ext {
		c.reads.Add(1)
	}
	return c.FS.ReadFile(path)
}

// Reads returns the matching ReadFile calls so far.
func (c *ReadCounter) Reads() int64 { return c.reads.Load() }

// Config declares an injector's fault schedule. Rates are per-operation
// probabilities in [0, 1], drawn from the seeded RNG in operation order;
// a rate of 1 makes every eligible operation fault (until MaxFaults
// exhausts the budget).
type Config struct {
	// Seed drives the deterministic fault schedule. The zero seed is
	// valid (xrand normalises it); two injectors with equal configs
	// inject faults on exactly the same operation sequence.
	Seed uint64
	// WriteEIO and WriteENOSPC fault the write path: temp-file creation,
	// writes, renames and directory creation. EIO models a flaky device
	// (transient — a retry may succeed), ENOSPC a full one (persistent).
	WriteEIO    float64
	WriteENOSPC float64
	// ReadEIO faults ReadFile/ReadDir with EIO.
	ReadEIO float64
	// TornWrite corrupts the data written to a staging file — the write
	// "succeeds" but the bytes are truncated and the tail flipped,
	// modelling a torn page the rename then publishes whole. Exercises
	// the checksum-validation and healing paths.
	TornWrite float64
	// Latency is injected before an operation with probability
	// LatencyRate — a slow, not broken, device.
	Latency     time.Duration
	LatencyRate float64
	// MaxFaults bounds the total number of injected faults (torn writes
	// and latency included); 0 means unlimited. A bounded budget turns a
	// chaos run into a storm-then-recover scenario: once the budget is
	// spent the filesystem heals, so degraded caches can re-probe their
	// way back to healthy.
	MaxFaults int64
}

// Stats counts the faults an injector has delivered, by kind.
type Stats struct {
	EIO     int64
	ENOSPC  int64
	Torn    int64
	Latency int64
}

// Total returns the total number of injected faults.
func (s Stats) Total() int64 { return s.EIO + s.ENOSPC + s.Torn + s.Latency }

// Injector is an FS decorator that injects faults on a deterministic
// seed-driven schedule. It is safe for concurrent use: draws are
// serialised, so the fault decision sequence is a pure function of the
// seed and the operation order (concurrency may permute which operation
// receives which draw, but rates and totals are stable and a
// single-threaded test replays exactly).
type Injector struct {
	inner FS
	cfg   Config
	armed atomic.Bool

	mu  sync.Mutex
	rng *xrand.Rand

	eio     atomic.Int64
	enospc  atomic.Int64
	torn    atomic.Int64
	latency atomic.Int64
}

// NewInjector wraps inner (nil = the real filesystem) with the fault
// schedule cfg declares. The injector starts armed.
func NewInjector(inner FS, cfg Config) *Injector {
	if inner == nil {
		inner = OS
	}
	in := &Injector{inner: inner, cfg: cfg, rng: xrand.New(cfg.Seed)}
	in.armed.Store(true)
	return in
}

// SetArmed enables or disables injection. While disarmed every
// operation passes through clean and consumes no RNG draws, so setup
// phases (opening caches, staging fixtures) do not perturb the fault
// schedule the armed phase replays.
func (in *Injector) SetArmed(armed bool) { in.armed.Store(armed) }

// Stats returns the faults injected so far, by kind.
func (in *Injector) Stats() Stats {
	return Stats{
		EIO:     in.eio.Load(),
		ENOSPC:  in.enospc.Load(),
		Torn:    in.torn.Load(),
		Latency: in.latency.Load(),
	}
}

// budgetLeft reports whether the injector is armed and the fault budget
// allows one more fault.
func (in *Injector) budgetLeft() bool {
	if !in.armed.Load() {
		return false
	}
	return in.cfg.MaxFaults <= 0 || in.Stats().Total() < in.cfg.MaxFaults
}

// draw makes one deterministic decision at the given rate.
func (in *Injector) draw(rate float64) bool {
	if rate <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < rate
}

// sleep injects configured latency (counted as a fault) when drawn.
func (in *Injector) sleep() {
	if in.cfg.Latency <= 0 || !in.budgetLeft() || !in.draw(in.cfg.LatencyRate) {
		return
	}
	in.latency.Add(1)
	time.Sleep(in.cfg.Latency)
}

// writeFault returns the injected error for one write-path operation, or
// nil. ENOSPC is drawn before EIO so a schedule mixing both keeps stable
// per-kind rates.
func (in *Injector) writeFault(op, path string) error {
	in.sleep()
	if !in.budgetLeft() {
		return nil
	}
	if in.draw(in.cfg.WriteENOSPC) {
		in.enospc.Add(1)
		return fmt.Errorf("faultfs: injected on %s %s: %w", op, path, syscall.ENOSPC)
	}
	if in.draw(in.cfg.WriteEIO) {
		in.eio.Add(1)
		return fmt.Errorf("faultfs: injected on %s %s: %w", op, path, syscall.EIO)
	}
	return nil
}

// readFault returns the injected error for one read-path operation.
func (in *Injector) readFault(op, path string) error {
	in.sleep()
	if !in.budgetLeft() || !in.draw(in.cfg.ReadEIO) {
		return nil
	}
	in.eio.Add(1)
	return fmt.Errorf("faultfs: injected on %s %s: %w", op, path, syscall.EIO)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	if err := in.readFault("read", path); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(path)
}

func (in *Injector) ReadDir(path string) ([]os.DirEntry, error) {
	if err := in.readFault("readdir", path); err != nil {
		return nil, err
	}
	return in.inner.ReadDir(path)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if err := in.writeFault("mkdir", path); err != nil {
		return err
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.writeFault("rename", newpath); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(path string) error {
	// Removal is the cleanup path; faulting it would only leak staging
	// files the tests then misattribute, so it passes through.
	return in.inner.Remove(path)
}

func (in *Injector) Link(oldpath, newpath string) error {
	// A faulted Link must stay distinguishable from the EEXIST that
	// means "someone else holds the lease", so only EIO/ENOSPC are
	// injected; an injected error never aliases a lost claim race.
	if err := in.writeFault("link", newpath); err != nil {
		return err
	}
	return in.inner.Link(oldpath, newpath)
}

func (in *Injector) Stat(path string) (os.FileInfo, error) {
	if err := in.readFault("stat", path); err != nil {
		return nil, err
	}
	return in.inner.Stat(path)
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err := in.writeFault("create", dir); err != nil {
		return nil, err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: in}, nil
}

// faultFile decorates a staging file: writes can fault with EIO/ENOSPC
// or be silently torn (truncate + bit-flip) while reporting success.
type faultFile struct {
	File
	in *Injector
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.in.writeFault("write", f.Name()); err != nil {
		return 0, err
	}
	if f.in.budgetLeft() && f.in.draw(f.in.cfg.TornWrite) {
		f.in.torn.Add(1)
		// Write a torn version: the first half, with the final byte
		// flipped so even a half-length-valid payload fails its
		// checksum. Report full success — the caller publishes the torn
		// entry believing it whole, exactly like a lying disk.
		torn := append([]byte(nil), p[:(len(p)+1)/2]...)
		if len(torn) > 0 {
			torn[len(torn)-1] ^= 0xFF
		}
		if _, err := f.File.Write(torn); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return f.File.Write(p)
}
