package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hmpt/internal/wire"
)

// The family index is the on-disk side of snapshot derivation: a
// directory per derivation family under <cache>/families/<familyID>/,
// holding one small record per cached member. A cache lookup that
// misses its exact key asks FamilyBase for a derivation base and
// synthesizes the requested snapshot without executing a kernel.
// FamilyBase walks the records in member-ID order and stops at the first
// member whose snapshot loads, so a miss reads one record (plus any
// unusable ones sorted before it) however large the family has grown;
// FamilyMembers, which lists the whole family, is for inspection.
//
// Each member record is its own file (named by the member's snapshot
// ID) published through internal/fsatomic, so concurrent campaigns in
// separate processes never contend on a shared index file: registration
// is idempotent and last-writer-wins per member. The index is advisory
// only — a missing or unreadable record costs at most one extra kernel
// execution, and records always re-validate through SnapshotCache.Load
// (codec checksum plus key-metadata match) before anything trusts them.

// familyMemberMagic leads every family member record.
const familyMemberMagic = "HMPTFMBR"

func (c *SnapshotCache) familyDir(f FamilyKey) string {
	return filepath.Join(c.dir, "families", f.ID())
}

// encodeFamilyMember serialises the member fields derivation can vary.
func encodeFamilyMember(k SnapshotKey) []byte {
	var e wire.Encoder
	e.Raw([]byte(familyMemberMagic))
	e.F64(k.Scale)
	e.I64(int64(k.Iterations))
	e.U64(k.Seed)
	return e.Seal()
}

// decodeFamilyMember reconstructs a member key from its record and the
// family the record was listed under.
func decodeFamilyMember(f FamilyKey, raw []byte) (SnapshotKey, error) {
	if len(raw) < len(familyMemberMagic) || string(raw[:len(familyMemberMagic)]) != familyMemberMagic {
		return SnapshotKey{}, fmt.Errorf("trace: bad family member magic")
	}
	payload, err := wire.CheckSeal(raw)
	if err != nil {
		return SnapshotKey{}, fmt.Errorf("trace: family member: %w", err)
	}
	d := wire.NewDecoder(payload[len(familyMemberMagic):])
	scale := d.F64()
	iters := int(d.I64())
	seed := d.U64()
	if err := d.Err(); err != nil {
		return SnapshotKey{}, err
	}
	return f.WithFamily(scale, iters, seed), nil
}

// ValidFamilyMember reports whether raw is a structurally valid family
// member record (magic plus seal). The cache GC classifies member
// records with it: full decoding needs the family key, which a GC
// walking the directory tree does not have, but a record that fails
// this check can never be read by any key — dead by construction.
func ValidFamilyMember(raw []byte) error {
	if len(raw) < len(familyMemberMagic) || string(raw[:len(familyMemberMagic)]) != familyMemberMagic {
		return fmt.Errorf("trace: bad family member magic")
	}
	if _, err := wire.CheckSeal(raw); err != nil {
		return fmt.Errorf("trace: family member: %w", err)
	}
	return nil
}

// registerFamily publishes the key's member record into its family
// directory. Failures degrade the index, not the store: the snapshot
// entry itself is already published and addressable by exact key.
func (c *SnapshotCache) registerFamily(k SnapshotKey) error {
	dir := c.familyDir(k.Family())
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: creating family index: %w", err)
	}
	path := filepath.Join(dir, k.ID()+".member")
	if err := c.pub.Publish(path, encodeFamilyMember(k)); err != nil {
		return fmt.Errorf("trace: publishing family member: %w", err)
	}
	return nil
}

// walkFamily calls fn with each valid member of the key's derivation
// family, excluding the key itself, in member-ID order, and stops as
// soon as fn returns false — so a caller that wants one member reads
// only the records up to it. The record names are sorted here rather
// than trusting the filesystem's listing order; a valid record's name is
// its member ID, so name order is ID order. Unreadable, corrupt or
// renamed records are skipped as non-fatal (the index is advisory and
// every member still goes through Load's full validation before use)
// but counted in Stats().Errors so degraded index health is observable;
// the next Store of the member re-publishes its record, healing it.
func (c *SnapshotCache) walkFamily(k SnapshotKey, fn func(SnapshotKey) bool) {
	fam := k.Family()
	dir := c.familyDir(fam)
	entries, err := c.fs.ReadDir(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			c.cnt.errors.Add(1)
		}
		return
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if name := ent.Name(); !ent.IsDir() && filepath.Ext(name) == ".member" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	self := k.ID()
	for _, name := range names {
		raw, err := c.fs.ReadFile(filepath.Join(dir, name))
		if err != nil {
			c.cnt.errors.Add(1)
			continue
		}
		mk, err := decodeFamilyMember(fam, raw)
		if err != nil {
			c.cnt.errors.Add(1)
			continue
		}
		id := mk.ID()
		if id == self {
			continue
		}
		// The record's file name must agree with the key it decodes to —
		// a renamed or cross-copied record would otherwise alias a
		// member that does not exist.
		if name != id+".member" {
			c.cnt.errors.Add(1)
			continue
		}
		if !fn(mk) {
			return
		}
	}
}

// FamilyMembers lists every cached member of the key's derivation
// family, excluding the key itself, in deterministic (member-ID) order.
// It reads the whole family index; FamilyBase is the lookup that stops
// at the first usable member.
func (c *SnapshotCache) FamilyMembers(k SnapshotKey) []SnapshotKey {
	var out []SnapshotKey
	c.walkFamily(k, func(mk SnapshotKey) bool {
		out = append(out, mk)
		return true
	})
	return out
}

// FamilyBase returns the first member of the key's derivation family,
// in member-ID order, whose snapshot loads — the same base a caller
// would pick by loading FamilyMembers in order — reading records only
// up to it, so the records it reads do not grow with the family. A
// member whose snapshot is missing or fails Load's checksum and
// metadata validation is passed over; ok is false when no member loads.
func (c *SnapshotCache) FamilyBase(k SnapshotKey) (base *Snapshot, ok bool) {
	c.walkFamily(k, func(mk SnapshotKey) bool {
		base, ok, _ = c.Load(mk)
		return !ok
	})
	return base, ok
}
