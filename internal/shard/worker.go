package shard

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
)

// WorkerOptions configures one shard worker.
type WorkerOptions struct {
	// ID names this worker in leases, journal records and its shard
	// report. Empty generates a process-unique ID. IDs must be unique
	// across the fleet (and across workers sharing a process).
	ID string
	// TTL is the lease lifetime; a worker that misses renewals for a
	// full TTL (killed, stalled, partitioned) forfeits its cells to the
	// survivors. 0 means 30s.
	TTL time.Duration
	// Heartbeat is the renewal period; 0 means TTL/3.
	Heartbeat time.Duration
	// Poll is the idle re-scan period while every remaining cell is
	// leased elsewhere or backing off; 0 means 200ms.
	Poll time.Duration
	// MaxAttempts bounds fleet-wide execution attempts per cell before
	// quarantine; 0 means 3.
	MaxAttempts int
	// Backoff is the retry delay after a cell's first failure, doubling
	// per subsequent failure; 0 means 1s.
	Backoff time.Duration
	// FS is the filesystem seam for the shard directory (leases,
	// journal, fail and quarantine records); nil means the real one.
	// Wiring a faultfs.Injector here chaos-tests the coordination layer
	// without touching the engine's caches.
	FS faultfs.FS
	// Engine executes claimed cells; nil means a bare engine (no disk
	// caches). Callers normally wire the same snapshot and analysis
	// caches a single-process campaign would use — workers then share
	// captures through the cache tree exactly like concurrent
	// single-process runs do.
	Engine *campaign.Engine

	// abandonBeforeJournal, when set (tests only), is consulted after a
	// cell computes but before its journal record publishes; returning
	// true makes the worker stop dead — lease held, journal absent —
	// which is observationally a SIGKILL at the worst possible instant.
	abandonBeforeJournal func(cell int) bool
}

// errAbandoned reports a worker stopped by the test-only abandon hook.
var errAbandoned = errors.New("shard: worker abandoned (test hook)")

// Summary is what one worker's Run contributed and observed. Executed,
// JournalHits, Failures and Reclaimed are read from the worker's ledger.
type Summary struct {
	Owner string `json:"owner"`
	// Cells is the campaign's total cell count; Executed how many this
	// worker computed and journaled; JournalHits how many it found
	// already journaled by someone else (zero-recompute skips);
	// Failures how many of its attempts failed; Quarantined how many
	// cells ended quarantined fleet-wide.
	Cells       int `json:"cells"`
	Executed    int `json:"executed"`
	JournalHits int `json:"journal_hits"`
	Failures    int `json:"failures"`
	Quarantined int `json:"quarantined"`
	// Reclaimed counts expired leases this worker tore down — each one
	// absorbed a peer's crash or stall.
	Reclaimed   int64         `json:"reclaimed"`
	Duration    time.Duration `json:"duration_ns"`
	CellsPerSec float64       `json:"cells_per_sec"`
}

// Worker executes one shard of a campaign: a claim loop over the
// manifest's cells against the shared shard directory.
type Worker struct {
	dir   string
	man   *Manifest
	cells []cellRef
	opts  WorkerOptions

	eng      *campaign.Engine
	leases   *leaseManager
	journal  *journal
	attempts *attempts

	settled []bool // journaled or quarantined, by cell
	mine    []bool // journaled by this worker

	// ledger counts this worker's coordination events; its Summary
	// reads them from here.
	ledger *core.Ledger
}

// processLedger is the parent of every worker's ledger. Only the four
// getters below read it, and perfbench is their only caller; they go
// once perfbench reads each worker's Summary instead (the ROADMAP's
// benchmark-upkeep item).
var processLedger = core.NewLedger(nil)

// LeasesAcquired counts the process's lease claims, fresh and
// reclaimed, whose holder went on to run the cell.
func LeasesAcquired() int64 { return processLedger.Count(core.LeaseAcquired) }

// LeaseRenewals counts the process's lease heartbeat renewals.
func LeaseRenewals() int64 { return processLedger.Count(core.LeaseRenewal) }

// LeasesReclaimed counts the process's takeovers of expired or
// unparseable leases.
func LeasesReclaimed() int64 { return processLedger.Count(core.LeaseReclaim) }

// CellsJournaled counts the completion records the process published.
func CellsJournaled() int64 { return processLedger.Count(core.CellJournaled) }

// NewWorker opens the shard directory, validates its manifest and
// rebuilds the matrix.
func NewWorker(dir string, opts WorkerOptions) (*Worker, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	m, err := man.Matrix()
	if err != nil {
		return nil, err
	}
	if opts.ID == "" {
		opts.ID = defaultOwnerID()
	}
	if opts.TTL <= 0 {
		opts.TTL = 30 * time.Second
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = opts.TTL / 3
	}
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = time.Second
	}
	fs := opts.FS
	if fs == nil {
		fs = faultfs.OS
	}
	eng := opts.Engine
	if eng == nil {
		eng = &campaign.Engine{}
	}
	cells := enumerate(m)
	led := core.NewLedger(processLedger)
	return &Worker{
		dir:   dir,
		man:   man,
		cells: cells,
		opts:  opts,
		eng:   eng,
		leases: &leaseManager{
			fs: fs, dir: filepath.Join(dir, leaseDir),
			manifest: man.ID, owner: opts.ID, ttl: opts.TTL, ledger: led,
		},
		journal: &journal{fs: fs, dir: filepath.Join(dir, journalDir), manifest: man.ID, ledger: led},
		attempts: &attempts{
			fs: fs, failDir: filepath.Join(dir, failDir), quarDir: filepath.Join(dir, quarantineDir),
			manifest: man.ID, owner: opts.ID, backoff: opts.Backoff, max: opts.MaxAttempts,
		},
		settled: make([]bool, len(cells)),
		mine:    make([]bool, len(cells)),
		ledger:  led,
	}, nil
}

// defaultOwnerID builds a fleet-unique worker identity.
func defaultOwnerID() string {
	host, _ := os.Hostname()
	if host == "" {
		host = "host"
	}
	var nonce [4]byte
	rand.Read(nonce[:])
	// Sanitise: the ID becomes part of file names.
	host = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, host)
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), hex.EncodeToString(nonce[:]))
}

// claimOrder returns the cell visit order: cells grouped by snapshot
// derivation family (siblings adjacent, ascending index within a
// family), with the family sequence rotated by a hash of the worker ID
// so a fleet's workers start claiming in different families and mostly
// stay out of each other's way. Family affinity keeps derivation local:
// the worker that resolves a family's base capture claims that family's
// remaining cells next, so an iteration × scale × seed sweep derives
// its siblings on the worker already holding the base instead of
// executing redundant kernels across the fleet, while the rotation
// interleaves distinct families across workers. Pure de-contention plus
// cache affinity — any order is correct.
func (w *Worker) claimOrder() []int {
	famIdx := make(map[string]int)
	var families [][]int
	for i, ref := range w.cells {
		// The engine's own resolution, so the family computed here is
		// the family the capture stage groups by.
		opts := campaign.CellOptions(ref.Workload, ref.Platform, ref.Variant)
		fid := core.SnapshotKeyFor(ref.Workload.Name, opts).Family().ID()
		gi, ok := famIdx[fid]
		if !ok {
			gi = len(families)
			famIdx[fid] = gi
			families = append(families, nil)
		}
		families[gi] = append(families[gi], i)
	}
	h := fnv.New32a()
	h.Write([]byte(w.opts.ID))
	start := int(h.Sum32() % uint32(len(families)))
	order := make([]int, 0, len(w.cells))
	for g := range families {
		order = append(order, families[(start+g)%len(families)]...)
	}
	return order
}

// Run executes the claim loop until every cell is settled (journaled
// complete or quarantined), then sweeps stale coordination files and
// publishes this worker's shard report. It blocks across peers' work:
// a worker with nothing claimable polls until the fleet finishes, so
// every worker observes campaign completion.
func (w *Worker) Run(ctx context.Context) (*Summary, error) {
	start := time.Now()
	order := w.claimOrder()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		progress := false
		settled := 0
		for _, i := range order {
			if w.settled[i] {
				settled++
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if w.journaled(i) {
				settled++
				continue
			}
			if _, ok := w.attempts.quarantined(i); ok {
				w.settled[i] = true
				settled++
				continue
			}
			hist := w.attempts.history(i)
			if len(hist) >= w.opts.MaxAttempts {
				if w.attempts.quarantine(w.cells[i], hist) == nil {
					w.settled[i] = true
					settled++
				}
				continue
			}
			if !w.attempts.eligible(hist, time.Now()) {
				continue // backing off; revisit next round
			}
			// A lease error is a skip (the advisory layer: an unreadable
			// lease costs a round), and nil a live holder elsewhere.
			l, err := w.leases.tryAcquire(i)
			if err != nil || l == nil {
				continue
			}
			if w.journaled(i) {
				// A peer journaled the cell and let go of it between the
				// check above and this claim: no work, so no lease counted.
				l.release()
				settled++
				continue
			}
			w.ledger.Add(core.LeaseAcquired)
			abandoned, executed := w.runCell(ctx, i, l, len(hist)+1)
			if abandoned {
				return nil, errAbandoned
			}
			progress = progress || executed
		}
		if settled == len(w.cells) {
			w.sweep()
			sum := w.summary(time.Since(start))
			if err := w.publishReport(sum); err != nil {
				return sum, fmt.Errorf("shard: publishing report: %w", err)
			}
			return sum, nil
		}
		if !progress {
			if err := sleepCtx(ctx, w.opts.Poll); err != nil {
				return nil, err
			}
		}
	}
}

// journaled settles cell i if its journal record exists, counting a
// peer's record as a journal hit. It checks the record's envelope only
// and decodes no analysis: Merge decodes each record once.
func (w *Worker) journaled(i int) bool {
	if !w.journal.settled(i) {
		return false
	}
	w.settled[i] = true
	if !w.mine[i] {
		w.ledger.Add(core.JournalSkip)
	}
	return true
}

// runCell executes one claimed cell: heartbeat goroutine renewing the
// lease, engine run, then journal-or-fail bookkeeping. Reports whether
// the test abandon hook fired and whether any state was advanced.
func (w *Worker) runCell(ctx context.Context, i int, l *lease, attempt int) (abandoned, progress bool) {
	hbStop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(w.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := l.renew(); errors.Is(err, errLeaseLost) {
					// Reclaimed out from under us: keep computing (the
					// result is byte-identical wherever it lands) but
					// stop touching the lease.
					return
				}
			}
		}
	}()
	stopHeartbeat := func() { close(hbStop); hb.Wait() }

	res, err := w.eng.RunContext(ctx, singleCell(w.cells[i]))
	stopHeartbeat()
	if err != nil {
		if ctx.Err() == nil {
			w.failCell(i, attempt, err)
		}
		l.release()
		return false, true
	}
	cell := &res.Cells[0]
	if cell.Err != nil {
		w.failCell(i, attempt, cell.Err)
		l.release()
		return false, true
	}
	if w.opts.abandonBeforeJournal != nil && w.opts.abandonBeforeJournal(i) {
		return true, false // SIGKILL equivalent: lease held, no journal
	}
	rec := &cellRecord{
		Cell:     i,
		Workload: cell.Workload, Platform: cell.Platform, Variant: cell.Variant,
		Owner:     w.opts.ID,
		FromCache: cell.FromCache, Derived: cell.Derived, SeedDerived: cell.SeedDerived,
		AnalysisFromCache: cell.AnalysisFromCache, Coalesced: cell.Coalesced,
		Analysis: cell.Analysis,
	}
	if err := w.journal.complete(rec); err != nil {
		// Computed but unpersistable (disk trouble): record as a failure
		// so the retry/backoff machinery governs the re-attempt — maybe
		// on a worker whose disk works.
		w.failCell(i, attempt, err)
		l.release()
		return false, true
	}
	w.settled[i] = true
	w.mine[i] = true
	l.release()
	return false, true
}

// failCell records one failed attempt, absorbing bookkeeping errors
// (the fail record is advisory; losing one means one extra retry).
func (w *Worker) failCell(i, attempt int, cellErr error) {
	w.ledger.Add(core.CellFailure)
	_ = w.attempts.recordFailure(i, attempt, cellErr, w.leases.seq.Add(1))
}

// sweep removes stale coordination files once the campaign is settled:
// every lease record (all cells are done, so every generation chain is
// dead) and orphaned fsatomic staging files.
// Races with peers running the same sweep are benign; removal errors
// are ignored (merge sweeps again).
func (w *Worker) sweep() {
	sweepLeases(w.leases.fs, w.dir)
	sweepStaging(w.leases.fs, filepath.Join(w.dir, journalDir))
}

// sweepLeases removes every lease record of the shard directory and
// returns how many it removed.
func sweepLeases(fs faultfs.FS, shardDir string) int {
	dir := filepath.Join(shardDir, leaseDir)
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range entries {
		if !ent.IsDir() && fs.Remove(filepath.Join(dir, ent.Name())) == nil {
			n++
		}
	}
	return n
}

// sweepStaging removes fsatomic staging files (".<name>.tmp*") from
// dir — the residue of publishes killed between stage and rename.
func sweepStaging(fs faultfs.FS, dir string) int {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() && fsatomic.IsStaging(name) {
			if fs.Remove(filepath.Join(dir, name)) == nil {
				n++
			}
		}
	}
	return n
}

// summary assembles this worker's Summary.
func (w *Worker) summary(dur time.Duration) *Summary {
	quar := 0
	for i := range w.cells {
		if _, ok := w.attempts.quarantined(i); ok {
			quar++
		}
	}
	s := &Summary{
		Owner:       w.opts.ID,
		Cells:       len(w.cells),
		Executed:    int(w.ledger.Count(core.CellJournaled)),
		JournalHits: int(w.ledger.Count(core.JournalSkip)),
		Failures:    int(w.ledger.Count(core.CellFailure)),
		Quarantined: quar,
		Reclaimed:   w.ledger.Count(core.LeaseReclaim),
		Duration:    dur,
	}
	if dur > 0 {
		s.CellsPerSec = float64(s.Executed) / dur.Seconds()
	}
	return s
}

// publishReport persists the worker's summary for the merge step. It is
// the one coordination write whose failure fails Run, so it rides the
// caches' write-path policy: a transient error is retried with backoff.
func (w *Worker) publishReport(s *Summary) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(w.dir, reportDir, w.opts.ID+".json")
	pub := &fsatomic.Publisher{FS: w.leases.fs}
	return pub.Publish(path, append(raw, '\n'))
}

// sleepCtx sleeps for d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
