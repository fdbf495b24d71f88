package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
	"hmpt/internal/wire"
)

// journalMagic leads every completion record; journalVersion gates the
// layout. Version 2 added the SeedDerived provenance flag; version 3
// embeds the analysis body inline under the record's single CRC-32C
// seal instead of as a nested sealed string. Records of an older
// version read as incomplete, which is the designed retirement path
// (the cell re-executes and re-journals).
const (
	journalMagic   = "HMPTJNL1"
	journalVersion = 3
)

// cellRecord is one journaled cell completion: the cell coordinates and
// provenance flags, plus the full encoded analysis. Embedding the
// analysis (rather than a cache key) is what makes merge kernel-free
// and byte-exact: the record *is* the result, GroupBy cells included,
// and no cache eviction between completion and merge can force a
// recompute.
type cellRecord struct {
	Cell     int
	Workload string
	Platform string
	Variant  string
	Owner    string

	FromCache         bool
	Derived           bool
	SeedDerived       bool
	AnalysisFromCache bool
	Coalesced         bool

	Analysis *core.Analysis
}

// journal reads and writes the per-cell completion records of one shard
// directory.
type journal struct {
	fs       faultfs.FS
	dir      string // <shard-dir>/journal
	manifest string
	// ledger counts published and invalid records (nil: none).
	ledger *core.Ledger
}

func (j *journal) path(cell int) string {
	return filepath.Join(j.dir, cellName(cell)+".done")
}

// encode seals a record: deterministic little-endian header fields,
// then the analysis body (core.AppendAnalysis) under the record's
// manifest-scoped identifier, then one CRC-32C seal over all of it. The
// exact length is computed first, so encoding is one allocation, and
// any torn prefix fails CheckSeal on read.
func (j *journal) encode(rec *cellRecord) ([]byte, error) {
	if rec.Analysis == nil {
		return nil, fmt.Errorf("shard: nil analysis")
	}
	id := cellRecordID(j.manifest, rec.Cell)
	var e wire.Encoder
	e.Grow(len(journalMagic) + 4 + wire.StrLen(j.manifest) + 8 +
		wire.StrLen(rec.Workload) + wire.StrLen(rec.Platform) +
		wire.StrLen(rec.Variant) + wire.StrLen(rec.Owner) + 5 +
		core.AnalysisLen(id, rec.Analysis) + wire.SealLen)
	e.Raw([]byte(journalMagic))
	e.U32(journalVersion)
	e.Str(j.manifest)
	e.I64(int64(rec.Cell))
	e.Str(rec.Workload)
	e.Str(rec.Platform)
	e.Str(rec.Variant)
	e.Str(rec.Owner)
	e.Bool(rec.FromCache)
	e.Bool(rec.Derived)
	e.Bool(rec.SeedDerived)
	e.Bool(rec.AnalysisFromCache)
	e.Bool(rec.Coalesced)
	core.AppendAnalysis(&e, id, rec.Analysis)
	return e.Seal(), nil
}

// complete publishes the cell's completion record. The publish is a
// plain atomic rename — last write wins — because duplicate completions
// carry the same analysis bytes; there is nothing to arbitrate. The
// record is read back after publishing and compared byte for byte with
// what was published: a publish the disk silently corrupted must
// surface as a failure here (so the cell retries) rather than as a
// settled cell whose record nobody can read. Only when the bytes differ
// is the read-back decoded — a duplicate completion by a peer differs in
// its Owner field and still settles the cell.
func (j *journal) complete(rec *cellRecord) error {
	raw, err := j.encode(rec)
	if err != nil {
		return fmt.Errorf("shard: journaling %s: %w", cellName(rec.Cell), err)
	}
	if err := fsatomic.PublishFS(j.fs, j.path(rec.Cell), raw); err != nil {
		return fmt.Errorf("shard: journaling %s: %w", cellName(rec.Cell), err)
	}
	back, err := j.fs.ReadFile(j.path(rec.Cell))
	if err == nil && !bytes.Equal(back, raw) {
		_, err = j.decode(rec.Cell, back)
	}
	if err != nil {
		j.ledger.Add(core.JournalInvalid)
		return fmt.Errorf("shard: journaling %s: record unreadable after publish: %w", cellName(rec.Cell), err)
	}
	j.ledger.Add(core.CellJournaled)
	return nil
}

// settled reports whether the cell is journaled: its record exists and
// its envelope validates (see envelope). The analysis body is not
// decoded — Merge decodes each record once. Every failure mode — missing
// file, torn record, wrong campaign, wrong cell, seal mismatch, another
// analysis codec version — reads as *incomplete*: the cell re-executes
// rather than trusting a damaged record. Damage beyond simple absence
// is counted.
func (j *journal) settled(cell int) bool {
	raw, ok := j.read(cell)
	if !ok {
		return false
	}
	if _, _, err := j.envelope(cell, raw); err != nil {
		j.ledger.Add(core.JournalInvalid)
		return false
	}
	return true
}

// load returns the cell's decoded completion record, or ok=false when
// the cell is not (validly) journaled. A record that settled accepts
// but whose analysis body does not decode (or embeds the wrong
// identifier, or trails bytes) is removed: workers read it as done and
// would never re-run the cell, so removing it re-opens the cell for the
// next worker. Failures are counted as settled counts them.
func (j *journal) load(cell int) (*cellRecord, bool) {
	raw, ok := j.read(cell)
	if !ok {
		return nil, false
	}
	rec, d, err := j.envelope(cell, raw)
	if err != nil {
		j.ledger.Add(core.JournalInvalid)
		return nil, false
	}
	if err := j.body(cell, rec, d); err != nil {
		j.ledger.Add(core.JournalInvalid)
		_ = j.fs.Remove(j.path(cell))
		return nil, false
	}
	return rec, true
}

// read returns the cell's record bytes, or ok=false when there are
// none; a read failure other than absence is counted.
func (j *journal) read(cell int) ([]byte, bool) {
	raw, err := j.fs.ReadFile(j.path(cell))
	if err != nil {
		if !os.IsNotExist(err) {
			j.ledger.Add(core.JournalInvalid)
		}
		return nil, false
	}
	return raw, true
}

// decode validates and decodes one record for the given cell: its
// envelope, then its analysis body.
func (j *journal) decode(cell int, raw []byte) (*cellRecord, error) {
	rec, d, err := j.envelope(cell, raw)
	if err != nil {
		return nil, err
	}
	if err := j.body(cell, rec, d); err != nil {
		return nil, err
	}
	return rec, nil
}

// envelope validates everything of a record but its analysis body —
// magic, seal, journal version, manifest, cell index, the header fields
// and the body's leading analysis codec version — and returns the
// header with a decoder positioned at the body.
func (j *journal) envelope(cell int, raw []byte) (*cellRecord, *wire.Decoder, error) {
	if len(raw) < len(journalMagic)+4+wire.SealLen {
		return nil, nil, fmt.Errorf("shard: journal record truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(journalMagic)]) != journalMagic {
		return nil, nil, fmt.Errorf("shard: bad journal magic %q", raw[:len(journalMagic)])
	}
	payload, err := wire.CheckSeal(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: journal: %w", err)
	}
	d := wire.NewDecoder(payload[len(journalMagic):])
	if v := d.U32(); v != journalVersion {
		return nil, nil, fmt.Errorf("shard: journal version %d, this build reads %d", v, journalVersion)
	}
	rec := &cellRecord{}
	if m := d.Str(); m != j.manifest {
		return nil, nil, fmt.Errorf("shard: journal record belongs to campaign %.12s, not %.12s", m, j.manifest)
	}
	rec.Cell = int(d.I64())
	if rec.Cell != cell {
		return nil, nil, fmt.Errorf("shard: journal record for cell %d found under %s", rec.Cell, cellName(cell))
	}
	rec.Workload = d.Str()
	rec.Platform = d.Str()
	rec.Variant = d.Str()
	rec.Owner = d.Str()
	rec.FromCache = d.Bool()
	rec.Derived = d.Bool()
	rec.SeedDerived = d.Bool()
	rec.AnalysisFromCache = d.Bool()
	rec.Coalesced = d.Bool()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("shard: journal: %w", err)
	}
	// The body's version is read without consuming it: ReadAnalysis
	// checks it again when the body is decoded.
	if b := d.Rest(); len(b) < 4 || binary.LittleEndian.Uint32(b) != core.AnalysisVersion {
		return nil, nil, fmt.Errorf("shard: journal record for %s holds another analysis codec version", cellName(cell))
	}
	return rec, d, nil
}

// body decodes the analysis body envelope left d at into rec, counting
// one AnalysisDecode, and checks its identifier and that nothing trails
// it.
func (j *journal) body(cell int, rec *cellRecord, d *wire.Decoder) error {
	j.ledger.Add(core.AnalysisDecode)
	an, id, err := core.ReadAnalysis(d)
	if err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("shard: %d trailing bytes after journal record", d.Len())
	}
	if want := cellRecordID(j.manifest, cell); id != want {
		return fmt.Errorf("shard: journal analysis identity mismatch for %s", cellName(cell))
	}
	rec.Analysis = an
	return nil
}

// cell converts a journal record to a campaign cell.
func (rec *cellRecord) campaignCell() campaign.Cell {
	return campaign.Cell{
		Workload:          rec.Workload,
		Platform:          rec.Platform,
		Variant:           rec.Variant,
		Analysis:          rec.Analysis,
		FromCache:         rec.FromCache,
		Derived:           rec.Derived,
		SeedDerived:       rec.SeedDerived,
		AnalysisFromCache: rec.AnalysisFromCache,
		Coalesced:         rec.Coalesced,
	}
}
