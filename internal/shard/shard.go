// Package shard executes campaign matrices across cooperating worker
// processes that share nothing but a directory.
//
// A campaign is decomposed once into a durable on-disk manifest — a
// serialisable experiments.CampaignSpec plus the cell count it implies —
// and the matrix is rebuilt *identically* in every worker process from
// that manifest, so cell indices, cache keys and enumeration order agree
// across the fleet by construction. Workers then claim cells through
// lease files (atomic create-if-absent via link(2), heartbeat-renewed,
// TTL-expired), execute each claimed cell on a normal campaign engine,
// and record completion in a per-cell journal whose records embed the
// analysis wire body under one CRC-32C seal: a torn or half-written
// record fails its checksum and reads as *incomplete*, never as falsely
// done.
//
// The correctness split is deliberate: leases are an efficiency
// mechanism that partitions work, not a correctness mechanism. If a
// worker is SIGKILLed mid-cell its lease expires and a survivor reclaims
// the cell; if two workers ever compute the same cell (a reclaim racing
// a slow-but-alive holder), both produce byte-identical analyses — the
// engine is deterministic — and the journal's atomic last-write-wins
// publish keeps exactly one valid record. Execution is at-least-once,
// results are exactly-one.
//
// Cells that keep failing are retried with doubling backoff a bounded
// number of times and then quarantined: the campaign completes with a
// structured partial-failure report instead of hanging on a poisoned
// cell. Merge folds the journal back into a campaign.Result in matrix
// order — byte-identical to a single-process run of the same spec — and
// sweeps the stale lease and staging files a killed worker left behind.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hmpt/internal/campaign"
	"hmpt/internal/experiments"
	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
)

// ManifestSchema names the manifest wire format; a worker refuses a
// manifest written by an incompatible build rather than guessing at the
// cell numbering.
const ManifestSchema = "hmpt-shard/v1"

// Manifest is the durable description of a sharded campaign: everything
// a worker process needs to rebuild the exact matrix, plus an identity
// hash that pins the cell numbering.
type Manifest struct {
	Schema string                   `json:"schema"`
	Spec   experiments.CampaignSpec `json:"spec"`
	// Cells is the matrix cell count the spec resolved to when the
	// manifest was planned. A worker whose rebuild disagrees (a build
	// with a different workload table) must not join: its cell indices
	// would alias someone else's.
	Cells int `json:"cells"`
	// ID is the content hash over schema, spec and cell count. Lease and
	// journal records embed it so records from a different campaign
	// accidentally pointed at the same directory are never trusted.
	ID string `json:"id"`
}

// manifestID hashes the identity-bearing fields. The spec is normalised
// before hashing, so two invocations that describe the same matrix with
// different shorthand ("all" vs the expanded list) produce the same ID.
func manifestID(spec experiments.CampaignSpec, cells int) (string, error) {
	type identity struct {
		Schema string                   `json:"schema"`
		Spec   experiments.CampaignSpec `json:"spec"`
		Cells  int                      `json:"cells"`
	}
	raw, err := json.Marshal(identity{Schema: ManifestSchema, Spec: spec.Normalize(), Cells: cells})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// shard-directory layout, all relative to the shard dir.
const (
	manifestName  = "manifest.json"
	leaseDir      = "leases"
	journalDir    = "journal"
	failDir       = "fails"
	quarantineDir = "quarantine"
	reportDir     = "reports"
)

// cellName formats the canonical per-cell file stem. Fixed width keeps
// directory listings in cell order for humans; nothing parses it back.
func cellName(cell int) string { return fmt.Sprintf("cell-%06d", cell) }

// Plan decomposes the campaign the spec describes into a durable
// manifest at dir, creating the directory tree. Planning is idempotent
// and safe to race: the manifest publishes with an exclusive
// create-if-absent, so of any number of concurrent planners exactly one
// writes it and the rest adopt the winner's — provided it describes the
// same campaign. A manifest for a *different* campaign is an error, not
// something to silently overwrite: the directory already carries that
// campaign's leases and journal.
func Plan(dir string, spec experiments.CampaignSpec) (*Manifest, error) {
	spec = spec.Normalize()
	m, err := spec.Matrix()
	if err != nil {
		return nil, fmt.Errorf("shard: planning: %w", err)
	}
	cells := len(enumerate(m))
	if cells == 0 {
		return nil, fmt.Errorf("shard: planning: empty matrix")
	}
	id, err := manifestID(spec, cells)
	if err != nil {
		return nil, fmt.Errorf("shard: planning: %w", err)
	}
	man := &Manifest{Schema: ManifestSchema, Spec: spec, Cells: cells, ID: id}

	for _, sub := range []string{leaseDir, journalDir, failDir, quarantineDir, reportDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("shard: planning: %w", err)
		}
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: planning: %w", err)
	}
	path := filepath.Join(dir, manifestName)
	switch err := fsatomic.PublishExclusiveFS(faultfs.OS, path, append(raw, '\n')); {
	case err == nil:
		return man, nil
	case os.IsExist(err):
		existing, lerr := LoadManifest(dir)
		if lerr != nil {
			return nil, lerr
		}
		if existing.ID != man.ID {
			return nil, fmt.Errorf("shard: %s already holds a different campaign (manifest %.12s, this spec %.12s)",
				dir, existing.ID, man.ID)
		}
		return existing, nil
	default:
		return nil, fmt.Errorf("shard: planning: %w", err)
	}
}

// LoadManifest reads and validates the manifest at dir.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return decodeManifest(raw)
}

// decodeManifest parses and validates manifest bytes.
func decodeManifest(raw []byte) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if man.Schema != ManifestSchema {
		return nil, fmt.Errorf("shard: manifest schema %q, this build reads %q", man.Schema, ManifestSchema)
	}
	// Plan records the normalised spec, whose seed range is already an
	// explicit list; expanding a recorded count would size an
	// allocation from unverified bytes before the identity check.
	if man.Spec.SeedCount != 0 {
		return nil, fmt.Errorf("shard: manifest spec carries an unexpanded seed count %d", man.Spec.SeedCount)
	}
	id, err := manifestID(man.Spec, man.Cells)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if id != man.ID {
		return nil, fmt.Errorf("shard: manifest identity mismatch (recorded %.12s, computed %.12s)", man.ID, id)
	}
	return &man, nil
}

// Matrix rebuilds the campaign matrix the manifest describes,
// re-verifying that this build resolves it to the recorded cell count.
func (man *Manifest) Matrix() (campaign.Matrix, error) {
	m, err := man.Spec.Matrix()
	if err != nil {
		return campaign.Matrix{}, fmt.Errorf("shard: rebuilding matrix: %w", err)
	}
	if got := len(enumerate(m)); got != man.Cells {
		return campaign.Matrix{}, fmt.Errorf("shard: this build resolves the spec to %d cells, manifest pins %d — refusing to join", got, man.Cells)
	}
	return m, nil
}

// cellRef addresses one matrix cell by index together with the
// single-cell matrix ingredients needed to execute it.
type cellRef struct {
	Index    int
	Workload campaign.Workload
	Platform campaign.Platform
	Variant  campaign.Variant
}

// enumerate lists the matrix cells in the engine's enumeration order —
// workload-major, then platform, then variant — which defines the cell
// indices every lease, journal and quarantine record uses.
func enumerate(m campaign.Matrix) []cellRef {
	variants := m.Variants
	if len(variants) == 0 {
		variants = []campaign.Variant{{}}
	}
	refs := make([]cellRef, 0, len(m.Workloads)*len(m.Platforms)*len(variants))
	for _, w := range m.Workloads {
		for _, p := range m.Platforms {
			for _, v := range variants {
				refs = append(refs, cellRef{Index: len(refs), Workload: w, Platform: p, Variant: v})
			}
		}
	}
	return refs
}

// singleCell builds the one-cell matrix that executes ref on a normal
// campaign engine, preserving the variant overlay (and its absence: a
// matrix planned without variants re-executes without one, keeping the
// empty variant name and untouched options).
func singleCell(ref cellRef) campaign.Matrix {
	m := campaign.Matrix{
		Workloads: []campaign.Workload{ref.Workload},
		Platforms: []campaign.Platform{ref.Platform},
	}
	if ref.Variant.Name != "" || ref.Variant.Apply != nil {
		m.Variants = []campaign.Variant{ref.Variant}
	}
	return m
}

// cellRecordID derives the identifier sealed into a cell's journal
// record: manifest-scoped, so a journal can never satisfy a different
// campaign that reuses the directory.
func cellRecordID(manifestID string, cell int) string {
	sum := sha256.Sum256([]byte(manifestID + "/" + cellName(cell)))
	return hex.EncodeToString(sum[:])
}
