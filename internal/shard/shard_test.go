package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/faultfs"
)

// testSpec is a small real campaign: two workloads (kwave included so
// the GroupBy journal path is exercised) across two seed variants.
func testSpec() experiments.CampaignSpec {
	return experiments.CampaignSpec{
		Workloads: []string{"npb.is", "kwave"},
		Platforms: []string{"xeonmax"},
		Seeds:     []uint64{7, 8},
	}
}

// tinySpec is the cheapest real campaign: one workload, two seeds.
func tinySpec() experiments.CampaignSpec {
	return experiments.CampaignSpec{
		Workloads: []string{"npb.is"},
		Platforms: []string{"xeonmax"},
		Seeds:     []uint64{7, 8},
	}
}

// encodeCell canonicalises a cell analysis for byte comparison.
func encodeCell(t *testing.T, an *core.Analysis) []byte {
	t.Helper()
	raw, err := core.EncodeAnalysisRaw("equivalence", an)
	if err != nil {
		t.Fatalf("encoding analysis: %v", err)
	}
	return raw
}

// singleProcessRun executes the spec on one ordinary engine.
func singleProcessRun(t *testing.T, spec experiments.CampaignSpec) *campaign.Result {
	t.Helper()
	m, err := spec.Matrix()
	if err != nil {
		t.Fatalf("building matrix: %v", err)
	}
	res, err := (&campaign.Engine{}).Run(m)
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("single-process cell error: %v", err)
	}
	return res
}

// requireByteIdentical asserts the merged result equals the
// single-process reference cell by cell.
func requireByteIdentical(t *testing.T, single, merged *campaign.Result) {
	t.Helper()
	if len(single.Cells) != len(merged.Cells) {
		t.Fatalf("cell count: single %d, merged %d", len(single.Cells), len(merged.Cells))
	}
	for i := range single.Cells {
		s, m := &single.Cells[i], &merged.Cells[i]
		if s.Workload != m.Workload || s.Platform != m.Platform || s.Variant != m.Variant {
			t.Fatalf("cell %d coordinates: single %s/%s/%s, merged %s/%s/%s",
				i, s.Workload, s.Platform, s.Variant, m.Workload, m.Platform, m.Variant)
		}
		if m.Err != nil {
			t.Fatalf("cell %d merged error: %v", i, m.Err)
		}
		if !bytes.Equal(encodeCell(t, s.Analysis), encodeCell(t, m.Analysis)) {
			t.Fatalf("cell %d (%s/%s/%s): merged analysis differs from single-process run",
				i, s.Workload, s.Platform, s.Variant)
		}
	}
}

// requireNoCoordinationLitter asserts the shard dir holds no lease
// files or fsatomic staging residue.
func requireNoCoordinationLitter(t *testing.T, dir string) {
	t.Helper()
	leases, err := os.ReadDir(filepath.Join(dir, leaseDir))
	if err != nil {
		t.Fatalf("reading lease dir: %v", err)
	}
	if len(leases) != 0 {
		t.Fatalf("%d stale lease files remain (first: %s)", len(leases), leases[0].Name())
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if !d.IsDir() && strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp") {
			t.Errorf("staging residue: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking shard dir: %v", err)
	}
}

func workerOpts(id string) WorkerOptions {
	return WorkerOptions{
		ID: id, TTL: 2 * time.Second, Heartbeat: 100 * time.Millisecond,
		Poll: 10 * time.Millisecond, Backoff: 10 * time.Millisecond,
	}
}

func TestPlanIdempotentAndRejectsDifferentCampaign(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := Plan(dir, tinySpec())
	if err != nil {
		t.Fatalf("first plan: %v", err)
	}
	b, err := Plan(dir, tinySpec())
	if err != nil {
		t.Fatalf("re-plan: %v", err)
	}
	if a.ID != b.ID {
		t.Fatalf("re-plan changed identity: %s vs %s", a.ID, b.ID)
	}
	if _, err := Plan(dir, testSpec()); err == nil {
		t.Fatal("planning a different campaign into the same dir succeeded")
	}
}

func TestManifestNormalisesShorthand(t *testing.T) {
	t.Parallel()
	all := experiments.CampaignSpec{Workloads: []string{"all"}}
	var names []string
	for _, s := range experiments.Specs() {
		names = append(names, s.Name)
	}
	explicit := experiments.CampaignSpec{Workloads: names, Platforms: []string{"xeonmax"}}
	aCells := len(enumerateSpec(t, all))
	idA, err := manifestID(all, aCells)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := manifestID(explicit, aCells)
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB {
		t.Fatalf("shorthand and explicit specs hash differently: %s vs %s", idA, idB)
	}
}

func enumerateSpec(t *testing.T, spec experiments.CampaignSpec) []cellRef {
	t.Helper()
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	return enumerate(m)
}

// TestShardedCampaignMatchesSingleProcess is the equivalence oracle:
// three cold workers sharing nothing but the shard directory must merge
// to the byte-identical result of one single-process run.
func TestShardedCampaignMatchesSingleProcess(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	dir := t.TempDir()
	if _, err := Plan(dir, spec); err != nil {
		t.Fatalf("plan: %v", err)
	}

	const n = 3
	sums := make([]*Summary, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := NewWorker(dir, workerOpts(fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()

	cells := len(enumerateSpec(t, spec))
	executed := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if sums[i].Executed+sums[i].JournalHits != cells {
			t.Fatalf("worker %d: executed %d + journal hits %d != %d cells",
				i, sums[i].Executed, sums[i].JournalHits, cells)
		}
		executed += sums[i].Executed
	}
	if executed != cells {
		t.Fatalf("fleet executed %d cells, campaign has %d (leases failed to partition)", executed, cells)
	}

	merged, err := Merge(dir, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !merged.Complete || merged.Pending != 0 || len(merged.Quarantined) != 0 {
		t.Fatalf("merge state: complete=%v pending=%d quarantined=%d",
			merged.Complete, merged.Pending, len(merged.Quarantined))
	}
	if len(merged.Reports) != n {
		t.Fatalf("%d shard reports, want %d", len(merged.Reports), n)
	}
	requireByteIdentical(t, singleProcessRun(t, spec), merged.Result)
	requireNoCoordinationLitter(t, dir)
}

// TestKilledShardIsReclaimedAndCampaignCompletes kills (via the
// deterministic abandon hook — observationally a SIGKILL between
// compute and journal) a worker holding a lease, and requires the
// survivors to reclaim the cell and finish the campaign byte-identical
// to a single-process run.
func TestKilledShardIsReclaimedAndCampaignCompletes(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	dir := t.TempDir()
	if _, err := Plan(dir, spec); err != nil {
		t.Fatalf("plan: %v", err)
	}

	vopts := workerOpts("victim")
	vopts.TTL = 400 * time.Millisecond
	vopts.Heartbeat = 50 * time.Millisecond
	vopts.abandonBeforeJournal = func(int) bool { return true }
	victim, err := NewWorker(dir, vopts)
	if err != nil {
		t.Fatalf("victim: %v", err)
	}
	if _, err := victim.Run(context.Background()); !errors.Is(err, errAbandoned) {
		t.Fatalf("victim run: %v, want abandon", err)
	}
	// The victim is now "dead" holding an unreleased lease over a
	// computed-but-unjournaled cell.

	const n = 2
	sums := make([]*Summary, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		opts := workerOpts(fmt.Sprintf("survivor%d", i))
		opts.TTL = 400 * time.Millisecond
		opts.Heartbeat = 50 * time.Millisecond
		w, err := NewWorker(dir, opts)
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()

	reclaims := int64(0)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		reclaims += sums[i].Reclaimed
	}
	if reclaims < 1 {
		t.Fatalf("no lease reclaims recorded; the victim's expired lease was never taken over")
	}

	merged, err := Merge(dir, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !merged.Complete || len(merged.Quarantined) != 0 {
		t.Fatalf("merge state after kill: complete=%v quarantined=%d", merged.Complete, len(merged.Quarantined))
	}
	requireByteIdentical(t, singleProcessRun(t, spec), merged.Result)
	requireNoCoordinationLitter(t, dir)
}

// TestResumeRecomputesNothing pins the resumability contract: a fresh
// worker joining a completed campaign journals nothing, executes
// nothing, and runs zero kernels.
func TestResumeRecomputesNothing(t *testing.T) {
	t.Parallel()
	spec := tinySpec()
	dir := t.TempDir()
	if _, err := Plan(dir, spec); err != nil {
		t.Fatalf("plan: %v", err)
	}
	w1, err := NewWorker(dir, workerOpts("first"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Run(context.Background()); err != nil {
		t.Fatalf("first worker: %v", err)
	}

	led := core.NewLedger(nil)
	w2, err := NewWorker(dir, workerOpts("resume"))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := w2.Run(core.WithLedger(context.Background(), led))
	if err != nil {
		t.Fatalf("resume worker: %v", err)
	}
	cells := len(enumerateSpec(t, spec))
	if sum.Executed != 0 || sum.JournalHits != cells {
		t.Fatalf("resume executed %d, journal hits %d; want 0 and %d", sum.Executed, sum.JournalHits, cells)
	}
	if d := led.Work().Kernels; d != 0 {
		t.Fatalf("resume ran %d kernels; journaled-complete cells must recompute nothing", d)
	}
}

// TestTornJournalRecordReadsIncomplete pins the journal's failure
// direction: any damage reads as incomplete, never as falsely done.
func TestTornJournalRecordReadsIncomplete(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j := &journal{fs: faultfs.OS, dir: dir, manifest: "manifest-a", ledger: core.NewLedger(nil)}
	rec := &cellRecord{
		Cell: 0, Workload: "w", Platform: "p", Variant: "v", Owner: "o",
		Analysis: &core.Analysis{Workload: "w", Platform: "p", Runs: 3},
	}
	if err := j.complete(rec); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if _, ok := j.load(0); !ok {
		t.Fatal("intact record failed to load")
	}
	raw, err := os.ReadFile(j.path(0))
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string][]byte{
		"empty":      {},
		"truncated":  raw[:len(raw)/2],
		"one short":  raw[:len(raw)-1],
		"bit flip":   flipByte(raw, len(raw)/3),
		"seal flip":  flipByte(raw, len(raw)-1),
		"magic flip": flipByte(raw, 0),
		"garbage":    []byte("not a journal record at all"),
	}
	for name, body := range damage {
		if err := os.WriteFile(j.path(0), body, 0o644); err != nil {
			t.Fatal(err)
		}
		before := j.ledger.Count(core.JournalInvalid)
		if _, ok := j.load(0); ok {
			t.Fatalf("%s: damaged record read as complete", name)
		}
		if name != "empty" && j.ledger.Count(core.JournalInvalid) == before {
			// an empty file is the one case indistinguishable from a
			// fresh torn publish; everything else must be counted
			t.Fatalf("%s: damage not counted as JournalInvalid", name)
		}
	}

	// A record from a different campaign must not satisfy this one.
	if err := os.WriteFile(j.path(0), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	other := &journal{fs: faultfs.OS, dir: dir, manifest: "manifest-b"}
	if _, ok := other.load(0); ok {
		t.Fatal("record of campaign A read as complete for campaign B")
	}
	// A record renamed to another cell's slot must not satisfy it.
	if err := os.WriteFile(j.path(1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.load(1); ok {
		t.Fatal("cell 0's record read as completion of cell 1")
	}
}

func flipByte(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0xFF
	return out
}

// TestLeaseClaimRaceExactlyOneWinner races two workers on one
// unclaimed lease, repeatedly, under -race.
func TestLeaseClaimRaceExactlyOneWinner(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "a", ttl: time.Minute}
	b := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "b", ttl: time.Minute}
	for round := 0; round < 60; round++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		leases := make([]*lease, 2)
		errs := make([]error, 2)
		for i, lm := range []*leaseManager{a, b} {
			wg.Add(1)
			go func(i int, lm *leaseManager) {
				defer wg.Done()
				<-start
				leases[i], errs[i] = lm.tryAcquire(0)
			}(i, lm)
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d claimant %d: %v", round, i, err)
			}
		}
		switch {
		case leases[0] != nil && leases[1] != nil:
			t.Fatalf("round %d: both claimants won the lease", round)
		case leases[0] == nil && leases[1] == nil:
			t.Fatalf("round %d: nobody won an uncontended lease", round)
		case leases[0] != nil:
			leases[0].release()
		default:
			leases[1].release()
		}
	}
}

// TestExpiredLeaseReclaimRaceOneWinner races two workers on reclaiming
// a dead holder's expired lease.
func TestExpiredLeaseReclaimRaceOneWinner(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	dead := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "dead", ttl: time.Millisecond}
	a := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "a", ttl: time.Minute}
	b := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "b", ttl: time.Minute}
	for round := 0; round < 40; round++ {
		l, err := dead.tryAcquire(0)
		if err != nil || l == nil {
			t.Fatalf("round %d: dead holder failed to claim: %v", round, err)
		}
		time.Sleep(3 * time.Millisecond) // let the TTL lapse

		var wg sync.WaitGroup
		start := make(chan struct{})
		leases := make([]*lease, 2)
		errs := make([]error, 2)
		for i, lm := range []*leaseManager{a, b} {
			wg.Add(1)
			go func(i int, lm *leaseManager) {
				defer wg.Done()
				<-start
				leases[i], errs[i] = lm.tryAcquire(0)
			}(i, lm)
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d reclaimer %d: %v", round, i, err)
			}
		}
		winner := -1
		for i := range leases {
			if leases[i] != nil {
				if winner >= 0 {
					t.Fatalf("round %d: both reclaimers won", round)
				}
				winner = i
			}
		}
		// Exactly one may win; zero is also legal in principle (rename
		// raced such that both lost) but must not happen when only two
		// contend over a definitely-expired lease: the rename winner's
		// claim faces no competition for the fresh slot. Pin the
		// stronger property.
		if winner < 0 {
			t.Fatalf("round %d: nobody reclaimed the expired lease", round)
		}
		leases[winner].release()
	}
}

// pausingFS is a test-only filesystem that parks its holder before
// the first write it attempts — a lease manager's first write after
// reading the cell's lease chain is the staging file of its claim's
// publish — signalling paused and blocking until resume is closed.
// Reads pass straight through.
type pausingFS struct {
	faultfs.FS
	once   sync.Once
	paused chan struct{}
	resume chan struct{}
}

func (p *pausingFS) pause() {
	p.once.Do(func() {
		close(p.paused)
		<-p.resume
	})
}

func (p *pausingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	p.pause()
	return p.FS.CreateTemp(dir, pattern)
}

// TestLeaseReclaimAfterStaleReadLosesToPeer forces the interleaving the
// reclaim race needs: reclaimer A reads a dead holder's expired lease
// and is parked before acting on it, reclaimer B reclaims the cell in
// full, then A resumes with its stale view. A must lose — acting on the
// stale read must never displace B's fresh lease — and B must still
// own the cell.
func TestLeaseReclaimAfterStaleReadLosesToPeer(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	dead := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "dead", ttl: time.Millisecond}
	if l, err := dead.tryAcquire(0); err != nil || l == nil {
		t.Fatalf("dead holder failed to claim: %v", err)
	}
	time.Sleep(3 * time.Millisecond) // let the TTL lapse

	pfs := &pausingFS{FS: faultfs.OS, paused: make(chan struct{}), resume: make(chan struct{})}
	a := &leaseManager{fs: pfs, dir: dir, manifest: "m", owner: "a", ttl: time.Minute}
	b := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "b", ttl: time.Minute}
	type result struct {
		l   *lease
		err error
	}
	aDone := make(chan result, 1)
	go func() {
		l, err := a.tryAcquire(0)
		aDone <- result{l, err}
	}()
	<-pfs.paused
	lb, err := b.tryAcquire(0)
	if err != nil || lb == nil {
		t.Fatalf("reclaimer B failed to reclaim the expired lease: %v", err)
	}
	close(pfs.resume)
	ra := <-aDone
	if ra.err != nil {
		t.Fatalf("reclaimer A: %v", ra.err)
	}
	if ra.l != nil {
		t.Fatal("both reclaimers won: A's stale read displaced B's fresh lease")
	}
	if !lb.owned() {
		t.Fatal("B no longer owns the lease it reclaimed")
	}
	lb.release()
}

// leaseReadPauseFS is a test-only filesystem that parks its holder at
// its first lease-file read — for a worker, the point between its
// journal check of a cell and its claim of the cell's lease — signalling
// paused and blocking until resume is closed.
type leaseReadPauseFS struct {
	faultfs.FS
	once   sync.Once
	paused chan struct{}
	resume chan struct{}
}

func (p *leaseReadPauseFS) ReadFile(name string) ([]byte, error) {
	if strings.HasSuffix(name, ".lease") {
		p.once.Do(func() {
			close(p.paused)
			<-p.resume
		})
	}
	return p.FS.ReadFile(name)
}

// TestClaimAfterPeerJournaledIsAJournalHit forces the interleaving in
// which worker B finds a cell unjournaled, worker A then computes,
// journals and releases it, and only then does B claim the released
// lease. B must find A's journal record after its claim instead of
// computing the cell a second time.
func TestClaimAfterPeerJournaledIsAJournalHit(t *testing.T) {
	t.Parallel()
	spec := tinySpec()
	dir := t.TempDir()
	if _, err := Plan(dir, spec); err != nil {
		t.Fatalf("plan: %v", err)
	}
	pfs := &leaseReadPauseFS{FS: faultfs.OS, paused: make(chan struct{}), resume: make(chan struct{})}
	optsB := workerOpts("b")
	optsB.FS = pfs
	b, err := NewWorker(dir, optsB)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		sum *Summary
		err error
	}
	bDone := make(chan result, 1)
	go func() {
		sum, err := b.Run(context.Background())
		bDone <- result{sum, err}
	}()
	<-pfs.paused

	a, err := NewWorker(dir, workerOpts("a"))
	if err != nil {
		t.Fatal(err)
	}
	sumA, err := a.Run(context.Background())
	if err != nil {
		t.Fatalf("worker a: %v", err)
	}
	close(pfs.resume)
	rb := <-bDone
	if rb.err != nil {
		t.Fatalf("worker b: %v", rb.err)
	}
	cells := len(enumerateSpec(t, spec))
	if sumA.Executed != cells {
		t.Fatalf("worker a executed %d of %d cells", sumA.Executed, cells)
	}
	if rb.sum.Executed != 0 || rb.sum.JournalHits != cells {
		t.Fatalf("worker b executed %d cells with %d journal hits, want 0/%d (a journaled every cell first)",
			rb.sum.Executed, rb.sum.JournalHits, cells)
	}
}

// peerJournalFS publishes a peer's journal records, once, just before
// its holder's first lease link(2): for a worker, the instant after its
// journal check of a cell and before its claim of the cell's lease lands.
type peerJournalFS struct {
	faultfs.FS
	once    sync.Once
	publish func()
}

func (p *peerJournalFS) Link(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".lease") {
		p.once.Do(p.publish)
	}
	return p.FS.Link(oldpath, newpath)
}

// TestLeaseCountedOnlyWhenCellRuns forces the interleaving in which a
// peer journals every cell between a worker's first journal check and
// its lease link(2). The worker wins that lease, finds the peer's
// record on its second check and lets go without running the cell; a
// claim that did no work must not count as a lease.
func TestLeaseCountedOnlyWhenCellRuns(t *testing.T) {
	t.Parallel()
	spec := tinySpec()
	dir := t.TempDir()
	man, err := Plan(dir, spec)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	res := singleProcessRun(t, spec)
	peer := &journal{fs: faultfs.OS, dir: filepath.Join(dir, journalDir), manifest: man.ID}
	var published error
	opts := workerOpts("w")
	opts.FS = &peerJournalFS{FS: faultfs.OS, publish: func() {
		for i, c := range res.Cells {
			rec := &cellRecord{
				Cell: i, Workload: c.Workload, Platform: c.Platform, Variant: c.Variant,
				Owner: "peer", Analysis: c.Analysis,
			}
			if err := peer.complete(rec); err != nil && published == nil {
				published = err
			}
		}
	}}
	w, err := NewWorker(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if published != nil {
		t.Fatalf("publishing the peer's records: %v", published)
	}
	cells := len(enumerateSpec(t, spec))
	if sum.Executed != 0 || sum.JournalHits != cells {
		t.Fatalf("worker executed %d cells with %d journal hits, want 0/%d (the peer journaled every cell)",
			sum.Executed, sum.JournalHits, cells)
	}
	if n := w.ledger.Count(core.LeaseAcquired); n != 0 {
		t.Errorf("%d leases counted for a worker that ran no cell, want 0", n)
	}
}

// TestPoisonedCellQuarantines pre-loads a cell with a full failure
// history and requires the campaign to complete around it with a
// structured partial-failure report instead of hanging.
func TestPoisonedCellQuarantines(t *testing.T) {
	t.Parallel()
	spec := tinySpec()
	dir := t.TempDir()
	man, err := Plan(dir, spec)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	at := &attempts{
		fs: faultfs.OS, failDir: filepath.Join(dir, failDir), quarDir: filepath.Join(dir, quarantineDir),
		manifest: man.ID, owner: "poisoner", backoff: time.Millisecond, max: 3,
	}
	for i := 1; i <= 3; i++ {
		if err := at.recordFailure(0, i, fmt.Errorf("induced failure %d", i), uint64(i)); err != nil {
			t.Fatalf("recording failure %d: %v", i, err)
		}
	}

	opts := workerOpts("w")
	opts.MaxAttempts = 3
	w, err := NewWorker(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if sum.Quarantined != 1 {
		t.Fatalf("worker saw %d quarantined cells, want 1", sum.Quarantined)
	}

	merged, err := Merge(dir, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !merged.Complete {
		t.Fatal("campaign with a quarantined cell did not complete")
	}
	if len(merged.Quarantined) != 1 || merged.Quarantined[0].Attempts != 3 {
		t.Fatalf("quarantine report: %+v", merged.Quarantined)
	}
	if merged.Result.Cells[0].Err == nil {
		t.Fatal("quarantined cell carries no error in the merged result")
	}
	if merged.Result.Cells[1].Err != nil || merged.Result.Cells[1].Analysis == nil {
		t.Fatal("healthy cell did not complete alongside the quarantined one")
	}
	if merged.Result.Err() == nil {
		t.Fatal("merged result of a partial failure reports no error")
	}
}

// TestWorkerCompletesOnFaultyCoordinationFS drives a worker whose
// *coordination* filesystem (leases, journal, fail records) injects a
// deterministic storm of EIO and torn writes, and requires the campaign
// to complete correctly once the fault budget is spent.
func TestWorkerCompletesOnFaultyCoordinationFS(t *testing.T) {
	t.Parallel()
	spec := tinySpec()
	dir := t.TempDir()
	if _, err := Plan(dir, spec); err != nil {
		t.Fatalf("plan: %v", err)
	}
	inj := faultfs.NewInjector(nil, faultfs.Config{
		Seed: 42, WriteEIO: 0.2, ReadEIO: 0.1, TornWrite: 0.15, MaxFaults: 25,
	})
	opts := workerOpts("chaos")
	opts.FS = inj
	opts.MaxAttempts = 50 // journal-publish failures record attempts; keep far from quarantine
	opts.Backoff = time.Millisecond
	w, err := NewWorker(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker under fault injection: %v", err)
	}
	if inj.Stats().Total() == 0 {
		t.Fatal("injector delivered no faults; the test exercised nothing")
	}
	merged, err := Merge(dir, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !merged.Complete || len(merged.Quarantined) != 0 {
		t.Fatalf("merge state: complete=%v quarantined=%d", merged.Complete, len(merged.Quarantined))
	}
	requireByteIdentical(t, singleProcessRun(t, spec), merged.Result)
}

// TestMergeReportsPendingOnInProgressCampaign pins that merging early
// is safe and explicit about incompleteness.
func TestMergeReportsPendingOnInProgressCampaign(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if _, err := Plan(dir, tinySpec()); err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(dir, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.Complete || merged.Pending != len(merged.Result.Cells) {
		t.Fatalf("unworked campaign merged as complete=%v pending=%d", merged.Complete, merged.Pending)
	}
	for i := range merged.Result.Cells {
		if merged.Result.Cells[i].Err == nil {
			t.Fatalf("pending cell %d carries no error", i)
		}
	}
}

// claimFamilies resolves each cell's derivation-family ID from the
// engine's cell options, returning the family ID per cell index.
func claimFamilies(w *Worker) []string {
	fids := make([]string, len(w.cells))
	for i, ref := range w.cells {
		opts := campaign.CellOptions(ref.Workload, ref.Platform, ref.Variant)
		fids[i] = core.SnapshotKeyFor(ref.Workload.Name, opts).Family().ID()
	}
	return fids
}

// TestClaimOrderFamilyAffine: a worker's claim order is a permutation
// that keeps derivation-family siblings adjacent (ascending within the
// family, so the journaled cell indices are untouched), and distinct
// worker IDs rotate which family they start claiming so a fleet spreads
// across families instead of piling onto one base capture.
func TestClaimOrderFamilyAffine(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if _, err := Plan(dir, testSpec()); err != nil {
		t.Fatalf("plan: %v", err)
	}

	orders := make(map[string]bool)
	for _, id := range []string{"w0", "w1", "w2", "w3"} {
		w, err := NewWorker(dir, workerOpts(id))
		if err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
		order := w.claimOrder()
		if len(order) != len(w.cells) {
			t.Fatalf("worker %s: order covers %d cells, want %d", id, len(order), len(w.cells))
		}
		seen := make(map[int]bool, len(order))
		for _, i := range order {
			if i < 0 || i >= len(w.cells) || seen[i] {
				t.Fatalf("worker %s: order %v is not a permutation", id, order)
			}
			seen[i] = true
		}

		fids := claimFamilies(w)
		if len(fids) < 4 {
			t.Fatalf("test campaign enumerated only %d cells", len(fids))
		}
		closed := make(map[string]bool)
		prevFam, prevIdx := "", -1
		for _, i := range order {
			f := fids[i]
			if f != prevFam {
				if closed[f] {
					t.Fatalf("worker %s: family %s revisited after leaving it (order %v)", id, f, order)
				}
				if prevFam != "" {
					closed[prevFam] = true
				}
				prevFam, prevIdx = f, -1
			}
			if i < prevIdx {
				t.Fatalf("worker %s: family %s visited out of ascending index order (order %v)", id, f, order)
			}
			prevIdx = i
		}
		orders[fmt.Sprint(order)] = true
	}
	if len(orders) < 2 {
		t.Fatalf("all worker IDs produced the same claim order — rotation is not keyed by worker ID")
	}
}

// FuzzLoadManifest: decoding manifest bytes never panics, an accepted
// manifest rebuilds its matrix (or refuses) without panicking, and
// re-marshalling an accepted manifest loads back to the same ID.
func FuzzLoadManifest(f *testing.F) {
	for _, spec := range []experiments.CampaignSpec{
		{Workloads: []string{"npb.is"}, Seeds: []uint64{1, 2}},
		{Workloads: []string{"all"}, Platforms: []string{"xeonmax", "dual"}, SeedCount: 3, Iterations: 7},
	} {
		dir := f.TempDir()
		if _, err := Plan(dir, spec); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"schema":"hmpt-shard/v1","spec":{"workloads":["npb.is"],"seed_count":1152921504606846976},"cells":1,"id":""}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		man, err := decodeManifest(raw)
		if err != nil {
			return
		}
		man.Matrix()
		again, err := json.Marshal(man)
		if err != nil {
			t.Fatalf("re-marshalling an accepted manifest: %v", err)
		}
		back, err := decodeManifest(again)
		if err != nil {
			t.Fatalf("re-marshalled manifest does not load: %v", err)
		}
		if back.ID != man.ID {
			t.Fatalf("re-marshalled manifest loads to ID %.12s, want %.12s", back.ID, man.ID)
		}
	})
}

// failingStageFS fails the staging write of every publish into the
// fail-record tree, and of the first journalFails publishes into the
// journal.
type failingStageFS struct {
	faultfs.FS
	mu           sync.Mutex
	journalFails int
}

func (f *failingStageFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	if strings.Contains(dir, string(filepath.Separator)+failDir+string(filepath.Separator)) {
		return nil, errors.New("injected fail-record error")
	}
	if filepath.Base(dir) == journalDir {
		f.mu.Lock()
		fail := f.journalFails > 0
		f.journalFails--
		f.mu.Unlock()
		if fail {
			return nil, errors.New("injected journal error")
		}
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestWorkerCountsEveryFailedAttempt: a failed attempt is counted on
// the worker's ledger whether or not its fail record publishes, so
// Summary.Failures equals the attempts that failed.
func TestWorkerCountsEveryFailedAttempt(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if _, err := Plan(dir, tinySpec()); err != nil {
		t.Fatalf("plan: %v", err)
	}
	const journalFails = 3
	opts := workerOpts("flaky")
	opts.FS = &failingStageFS{FS: faultfs.OS, journalFails: journalFails}
	opts.MaxAttempts = 50
	w, err := NewWorker(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	cells := len(enumerateSpec(t, tinySpec()))
	if sum.Failures != journalFails || sum.Executed != cells {
		t.Fatalf("summary failures %d, executed %d; want %d and %d", sum.Failures, sum.Executed, journalFails, cells)
	}
	for i := 0; i < cells; i++ {
		if h := w.attempts.history(i); len(h) != 0 {
			t.Fatalf("cell %d: %d fail records published through a failing tree", i, len(h))
		}
	}
	if n := w.ledger.Count(core.LeaseAcquired); n != journalFails+int64(cells) {
		t.Errorf("%d leases acquired, want one per attempt (%d)", n, journalFails+cells)
	}
}

// TestWorkerLedgersSumIntoProcessCounts: every worker ledger adds into
// the package-level parent the process getters read. It reads
// process-wide counts, so it stays sequential: Go starts the parallel
// tests only after every sequential one has finished.
func TestWorkerLedgersSumIntoProcessCounts(t *testing.T) {
	dir := t.TempDir()
	if _, err := Plan(dir, tinySpec()); err != nil {
		t.Fatalf("plan: %v", err)
	}
	acquired, journaled := LeasesAcquired(), CellsJournaled()
	var leases, executed int64
	for _, id := range []string{"p0", "p1"} {
		w, err := NewWorker(dir, workerOpts(id))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := w.Run(context.Background())
		if err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
		leases += w.ledger.Count(core.LeaseAcquired)
		executed += int64(sum.Executed)
	}
	if d := LeasesAcquired() - acquired; d != leases {
		t.Errorf("process counted %d lease acquisitions, workers %d", d, leases)
	}
	if d := CellsJournaled() - journaled; d != executed || executed != int64(len(enumerateSpec(t, tinySpec()))) {
		t.Errorf("process counted %d journaled cells, workers executed %d", d, executed)
	}
}
