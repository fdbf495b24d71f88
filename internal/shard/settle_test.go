package shard

import (
	"context"
	"os"
	"sync"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/wire"
)

// reseal returns a copy of the sealed record raw with mutate applied to
// its payload and a fresh seal, so the damage reaches the decoders
// instead of stopping at the checksum.
func reseal(raw []byte, mutate func(payload []byte)) []byte {
	b := append([]byte(nil), raw[:len(raw)-wire.SealLen]...)
	mutate(b)
	var e wire.Encoder
	e.Raw(b)
	return e.Seal()
}

// runWorker runs one fresh worker over dir to completion.
func runWorker(t *testing.T, dir, id string) (*Worker, *Summary) {
	t.Helper()
	w, err := NewWorker(dir, workerOpts(id))
	if err != nil {
		t.Fatalf("worker %s: %v", id, err)
	}
	sum, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker %s: %v", id, err)
	}
	return w, sum
}

// TestSettleCheckDecodesNothingAndMergeDecodesOnce is the decode-count
// gate on a two-worker run of TestShardedCampaignMatchesSingleProcess's
// campaign: the workers decode no analysis at all (their settle checks
// read record envelopes only, and no read-back differs from what was
// published), and Merge decodes each journaled cell exactly once.
func TestSettleCheckDecodesNothingAndMergeDecodesOnce(t *testing.T) {
	t.Parallel()
	spec := testSpec()
	dir := t.TempDir()
	if _, err := Plan(dir, spec); err != nil {
		t.Fatal(err)
	}
	const n = 2
	workers := make([]*Worker, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range workers {
		w, err := NewWorker(dir, workerOpts(string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	cells := len(enumerateSpec(t, spec))
	var journaled, skips int64
	for i, w := range workers {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if d := w.ledger.Count(core.AnalysisDecode); d != 0 {
			t.Errorf("worker %d decoded %d analyses, want 0", i, d)
		}
		journaled += w.ledger.Count(core.CellJournaled)
		skips += w.ledger.Count(core.JournalSkip)
	}
	if journaled != int64(cells) || skips != int64(cells) {
		t.Fatalf("fleet journaled %d cells and skipped %d, want %d each", journaled, skips, cells)
	}

	led := core.NewLedger(nil)
	merged, err := MergeContext(core.WithLedger(context.Background(), led), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete {
		t.Fatalf("merge incomplete: %d pending", merged.Pending)
	}
	if d := led.Count(core.AnalysisDecode); d != int64(cells) {
		t.Errorf("Merge decoded %d analyses for %d journaled cells, want exactly one each", d, cells)
	}
	requireByteIdentical(t, singleProcessRun(t, spec), merged.Result)
}

// TestUndecodableRecordReopensAtMerge: a record whose seal and envelope
// are good but whose analysis body does not decode settles the cell for
// workers (the settle check reads no body), so Merge must re-open it:
// it removes the record and reports the cell pending, a fresh worker
// re-runs exactly that cell, and the next merge is byte-identical to a
// single-process run.
func TestUndecodableRecordReopensAtMerge(t *testing.T) {
	t.Parallel()
	spec := tinySpec()
	dir := t.TempDir()
	if _, err := Plan(dir, spec); err != nil {
		t.Fatal(err)
	}
	w, _ := runWorker(t, dir, "first")
	const bad = 1
	path := w.journal.path(bad)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The byte before the seal is the last config's Feasible flag; 2 is
	// not a bool, so the body no longer decodes.
	damaged := reseal(raw, func(b []byte) { b[len(b)-1] = 2 })
	if _, _, err := w.journal.envelope(bad, damaged); err != nil {
		t.Fatalf("the damaged record's envelope no longer validates: %v", err)
	}
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	_, sum := runWorker(t, dir, "settler")
	if sum.Executed != 0 {
		t.Fatalf("a worker re-ran %d cells; an undecodable record must still read as settled", sum.Executed)
	}

	led := core.NewLedger(nil)
	merged, err := MergeContext(core.WithLedger(context.Background(), led), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Complete || merged.Pending != 1 || merged.Result.Cells[bad].Err == nil {
		t.Fatalf("merge: complete=%v pending=%d, want cell %d alone pending", merged.Complete, merged.Pending, bad)
	}
	if led.Count(core.JournalInvalid) != 1 {
		t.Errorf("JournalInvalid counted %d, want 1", led.Count(core.JournalInvalid))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("merge left the undecodable record in place (stat: %v)", err)
	}

	fresh, sum := runWorker(t, dir, "fresh")
	if sum.Executed != 1 || !fresh.mine[bad] {
		t.Fatalf("fresh worker executed %d cells (cell %d mine: %v), want exactly cell %d", sum.Executed, bad, fresh.mine[bad], bad)
	}
	merged, err = Merge(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete {
		t.Fatalf("merge after re-run: %d pending", merged.Pending)
	}
	requireByteIdentical(t, singleProcessRun(t, spec), merged.Result)
}

// TestOtherAnalysisVersionReadsUnsettled: a record whose body leads with
// another analysis codec version fails the settle check (counted as
// JournalInvalid) and Merge's load, and stays in place for a worker to
// overwrite; a fresh worker re-runs exactly that cell.
func TestOtherAnalysisVersionReadsUnsettled(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j := &journal{fs: faultfs.OS, dir: dir, manifest: "manifest-a", ledger: core.NewLedger(nil)}
	rec := journalTestRecord()
	raw, err := j.encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	body := len(journalMagic) + 4 + wire.StrLen(j.manifest) + 8 +
		wire.StrLen(rec.Workload) + wire.StrLen(rec.Platform) + wire.StrLen(rec.Variant) + wire.StrLen(rec.Owner) + 5
	other := reseal(raw, func(b []byte) { b[body]++ })
	if err := os.WriteFile(j.path(0), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if j.settled(0) {
		t.Fatal("a record of another analysis codec version read as settled")
	}
	if n := j.ledger.Count(core.JournalInvalid); n != 1 {
		t.Errorf("JournalInvalid counted %d, want 1", n)
	}
	if _, ok := j.load(0); ok {
		t.Fatal("a record of another analysis codec version loaded")
	}
	if _, err := os.Stat(j.path(0)); err != nil {
		t.Fatalf("an unsettled record was removed: %v", err)
	}
	if d := j.ledger.Count(core.AnalysisDecode); d != 0 {
		t.Errorf("decoded %d analyses of another codec version, want 0", d)
	}

	// End to end: the same damage to a journaled cell makes a fresh
	// worker re-run exactly that cell.
	spec := tinySpec()
	sdir := t.TempDir()
	if _, err := Plan(sdir, spec); err != nil {
		t.Fatal(err)
	}
	w, _ := runWorker(t, sdir, "first")
	raw, err = os.ReadFile(w.journal.path(0))
	if err != nil {
		t.Fatal(err)
	}
	ref := w.cells[0]
	body = len(journalMagic) + 4 + wire.StrLen(w.man.ID) + 8 +
		wire.StrLen(ref.Workload.Name) + wire.StrLen(ref.Platform.Name) + wire.StrLen(ref.Variant.Name) +
		wire.StrLen("first") + 5
	if err := os.WriteFile(w.journal.path(0), reseal(raw, func(b []byte) { b[body]++ }), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, sum := runWorker(t, sdir, "fresh")
	if sum.Executed != 1 || !fresh.mine[0] {
		t.Fatalf("fresh worker executed %d cells, want exactly cell 0", sum.Executed)
	}
	merged, err := Merge(sdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdentical(t, singleProcessRun(t, spec), merged.Result)
}
