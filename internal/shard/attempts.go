package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
)

// failRecord is one recorded cell failure. One file per failure, each
// under a name unique to (owner, seq): failures append without any
// cross-process coordination, and the attempt count is simply the
// number of records — a fleet-wide total no matter which workers took
// the attempts.
type failRecord struct {
	Schema   string `json:"schema"`
	Manifest string `json:"manifest"`
	Cell     int    `json:"cell"`
	Owner    string `json:"owner"`
	Error    string `json:"error"`
	Failed   int64  `json:"failed_unix_nano"`
	// NextEligible gates the retry: the cell may not be claimed again
	// before this instant. Each successive failure doubles the delay, so
	// a transiently poisoned cell backs off instead of hot-looping.
	NextEligible int64 `json:"next_eligible_unix_nano"`
}

const failSchema = "hmpt-fail/v1"

// quarRecord is the terminal state of a cell that exhausted its retry
// budget: the structured partial-failure report the merge surfaces.
type quarRecord struct {
	Schema   string   `json:"schema"`
	Manifest string   `json:"manifest"`
	Cell     int      `json:"cell"`
	Workload string   `json:"workload"`
	Platform string   `json:"platform"`
	Variant  string   `json:"variant"`
	Attempts int      `json:"attempts"`
	Errors   []string `json:"errors"`
}

const quarSchema = "hmpt-quarantine/v1"

// attempts tracks per-cell failure history and quarantine state.
type attempts struct {
	fs       faultfs.FS
	failDir  string // <shard-dir>/fails
	quarDir  string // <shard-dir>/quarantine
	manifest string
	owner    string
	backoff  time.Duration
	max      int
}

func (a *attempts) cellDir(cell int) string {
	return filepath.Join(a.failDir, cellName(cell))
}

func (a *attempts) quarPath(cell int) string {
	return filepath.Join(a.quarDir, cellName(cell)+".quar")
}

// history returns the cell's failure records in time order. Unreadable
// or foreign records are skipped: a torn fail record must never inflate
// an attempt count into a premature quarantine.
func (a *attempts) history(cell int) []failRecord {
	entries, err := a.fs.ReadDir(a.cellDir(cell))
	if err != nil {
		return nil
	}
	var recs []failRecord
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		raw, err := a.fs.ReadFile(filepath.Join(a.cellDir(cell), ent.Name()))
		if err != nil {
			continue
		}
		var rec failRecord
		if json.Unmarshal(raw, &rec) != nil || rec.Schema != failSchema || rec.Manifest != a.manifest || rec.Cell != cell {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Failed < recs[j].Failed })
	return recs
}

// eligible reports whether the cell may be attempted now, given its
// failure history: attempt count under budget and past its backoff.
func (a *attempts) eligible(history []failRecord, now time.Time) bool {
	if len(history) >= a.max {
		return false // quarantine territory, never eligible
	}
	for _, rec := range history {
		if now.UnixNano() < rec.NextEligible {
			return false
		}
	}
	return true
}

// recordFailure appends one failure record with doubling backoff:
// attempt n (1-based) delays the next try by backoff << (n-1).
func (a *attempts) recordFailure(cell int, attempt int, cellErr error, seq uint64) error {
	if err := a.fs.MkdirAll(a.cellDir(cell), 0o755); err != nil {
		return err
	}
	delay := a.backoff
	for i := 1; i < attempt; i++ {
		delay *= 2
	}
	now := time.Now()
	rec := failRecord{
		Schema:       failSchema,
		Manifest:     a.manifest,
		Cell:         cell,
		Owner:        a.owner,
		Error:        cellErr.Error(),
		Failed:       now.UnixNano(),
		NextEligible: now.Add(delay).UnixNano(),
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%d.fail", a.owner, seq)
	return fsatomic.PublishFS(a.fs, filepath.Join(a.cellDir(cell), name), raw)
}

// quarantine publishes the cell's terminal quarantine record. Exclusive
// create: the first worker to conclude the budget is exhausted writes
// the report, racers adopt it.
func (a *attempts) quarantine(ref cellRef, history []failRecord) error {
	rec := quarRecord{
		Schema:   quarSchema,
		Manifest: a.manifest,
		Cell:     ref.Index,
		Workload: ref.Workload.Name,
		Platform: ref.Platform.Name,
		Variant:  ref.Variant.Name,
		Attempts: len(history),
	}
	for _, f := range history {
		rec.Errors = append(rec.Errors, f.Error)
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	err = fsatomic.PublishExclusiveFS(a.fs, a.quarPath(ref.Index), append(raw, '\n'))
	if os.IsExist(err) {
		return nil // a racer published first; its record stands
	}
	return err
}

// quarantined loads the cell's quarantine record if one exists and is
// valid. Damage reads as not-quarantined: the cell stays retryable.
func (a *attempts) quarantined(cell int) (*quarRecord, bool) {
	raw, err := a.fs.ReadFile(a.quarPath(cell))
	if err != nil {
		return nil, false
	}
	var rec quarRecord
	if json.Unmarshal(raw, &rec) != nil || rec.Schema != quarSchema || rec.Manifest != a.manifest || rec.Cell != cell {
		return nil, false
	}
	return &rec, true
}
