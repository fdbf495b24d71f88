package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/wire"
)

// substituteReadFS passes every call through except ReadFile, whose
// result it replaces with swap(original).
type substituteReadFS struct {
	faultfs.FS
	swap func([]byte) []byte
}

func (s substituteReadFS) ReadFile(path string) ([]byte, error) {
	raw, err := s.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return s.swap(raw), nil
}

func journalTestRecord() *cellRecord {
	return &cellRecord{
		Cell: 0, Workload: "w", Platform: "p", Variant: "v", Owner: "o",
		Derived:  true,
		Analysis: &core.Analysis{Workload: "w", Platform: "p", Runs: 3},
	}
}

// TestCompleteRejectsDamagedReadBack: a publish whose read-back differs
// by one byte from what was written fails complete and is counted as a
// JournalInvalid event, so the worker retries the cell rather than
// settling it on a record nobody can read.
func TestCompleteRejectsDamagedReadBack(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	flip := substituteReadFS{FS: faultfs.OS, swap: func(raw []byte) []byte {
		return flipByte(raw, len(raw)/2)
	}}
	j := &journal{fs: flip, dir: dir, manifest: "manifest-a", ledger: core.NewLedger(nil)}
	if err := j.complete(journalTestRecord()); err == nil {
		t.Fatal("complete accepted a damaged read-back")
	}
	if n := j.ledger.Count(core.JournalInvalid); n != 1 {
		t.Errorf("JournalInvalid counted %d, want 1", n)
	}
	if j.ledger.Count(core.CellJournaled) != 0 {
		t.Error("a failed completion was counted as journaled")
	}
}

// TestCompleteAcceptsPeerDuplicate: when a peer's completion of the same
// cell lands between this worker's publish and its read-back, the bytes
// differ (the Owner field) but the record is valid, so the cell settles.
func TestCompleteAcceptsPeerDuplicate(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j := &journal{fs: faultfs.OS, dir: dir, manifest: "manifest-a", ledger: core.NewLedger(nil)}
	peerRec := journalTestRecord()
	peerRec.Owner = "peer"
	peer, err := j.encode(peerRec)
	if err != nil {
		t.Fatal(err)
	}
	j.fs = substituteReadFS{FS: faultfs.OS, swap: func([]byte) []byte { return peer }}
	if err := j.complete(journalTestRecord()); err != nil {
		t.Fatalf("complete rejected a peer's valid duplicate: %v", err)
	}
	if j.ledger.Count(core.JournalInvalid) != 0 {
		t.Error("a peer's valid duplicate was counted as invalid")
	}
}

// FuzzJournalRecord: journal.decode never panics on arbitrary bytes,
// any record it accepts re-encodes to exactly the same bytes, and an
// accepted record is never accepted for another campaign or another
// cell. Each input is also tried re-sealed, so mutations reach the
// field decoders instead of stopping at the checksum.
func FuzzJournalRecord(f *testing.F) {
	const cell = 3
	j := &journal{manifest: "manifest-a"}
	recs := []*cellRecord{journalTestRecord()}
	if golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "analysis_v2.anl")); err == nil {
		if an, _, err := core.DecodeAnalysis(golden); err == nil {
			recs = append(recs, &cellRecord{Workload: "golden", Owner: "w1", AnalysisFromCache: true, Analysis: an})
		}
	}
	for _, rec := range recs {
		rec.Cell = cell
		raw, err := j.encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	other := &journal{manifest: "manifest-b"}
	check := func(t *testing.T, raw []byte) {
		rec, err := j.decode(cell, raw)
		if err != nil {
			return
		}
		re, err := j.encode(rec)
		if err != nil {
			t.Fatalf("re-encoding an accepted record: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(raw), len(re))
		}
		if _, err := other.decode(cell, raw); err == nil {
			t.Fatal("record accepted for a different campaign")
		}
		if _, err := j.decode(cell+1, raw); err == nil {
			t.Fatal("record accepted for a different cell")
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		check(t, raw)
		if len(raw) >= wire.SealLen {
			var e wire.Encoder
			e.Raw(raw[:len(raw)-wire.SealLen])
			check(t, e.Seal())
		}
	})
}
