package trace

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// The family index is the on-disk side of snapshot derivation, and it is
// the snapshot store's own layout: every snapshot lives in a directory
// per derivation family, <cache>/snapshots/<familyID>/, under a file
// name spelling the three fields derivation can vary (see memberName).
// Listing the directory therefore lists the family, and the name parses
// back to the member's key. A cache lookup that misses its exact key
// asks FamilyBase for a derivation base and synthesizes the requested
// snapshot without executing a kernel. FamilyBase walks the names in
// sorted order and stops at the first member whose snapshot loads, so a
// miss reads one snapshot (plus any unusable ones sorted before it)
// however large the family has grown; FamilyMembers, which lists the
// whole family, is for inspection.
//
// A snapshot's one publish both stores it and enrols it in its family,
// and removing the file retires it from both. The names are only a
// hint — every member still goes through SnapshotCache.Load (codec
// checksum plus key-metadata match) before anything trusts it, so a
// moved or renamed file costs at most one extra kernel execution.

func (c *SnapshotCache) familyDir(f FamilyKey) string {
	return filepath.Join(c.dir, "snapshots", f.ID())
}

// memberName is the file name of a family member's snapshot: its
// iteration count, scale bits and seed as fixed-width lowercase hex, so
// byte order of names is a total order over members and a name parses
// back to exactly the fields it was made from.
func memberName(iterations int, scale float64, seed uint64) string {
	return fmt.Sprintf("%016x-%016x-%016x.snap", uint64(int64(iterations)), math.Float64bits(scale), seed)
}

// MemberName is the file name, within its family directory, of the
// snapshot whose metadata is m. The cache GC checks stored files
// against it: a snapshot under any other name is never loaded.
func MemberName(m Meta) string { return memberName(m.Iterations, m.Scale, m.Seed) }

// parseMemberName reconstructs a member key from its file name and the
// family it was listed under. It accepts exactly the names memberName
// makes.
func parseMemberName(f FamilyKey, name string) (SnapshotKey, bool) {
	if len(name) != 3*16+2+len(".snap") {
		return SnapshotKey{}, false
	}
	var v [3]uint64
	for i := range v {
		var err error
		if v[i], err = strconv.ParseUint(name[17*i:17*i+16], 16, 64); err != nil {
			return SnapshotKey{}, false
		}
	}
	iterations, scale, seed := int(int64(v[0])), math.Float64frombits(v[1]), v[2]
	// Re-encoding rejects upper-case digits and stray separators.
	if memberName(iterations, scale, seed) != name {
		return SnapshotKey{}, false
	}
	return f.WithFamily(scale, iterations, seed), true
}

// walkFamily calls fn with each member of the key's derivation family,
// excluding the key itself, in name order, and stops as soon as fn
// returns false — so a caller that wants one member loads only the
// snapshots up to it. The names are sorted here rather than trusting the
// filesystem's listing order. A name that does not parse is skipped as
// non-fatal but counted in Stats().Errors, so a polluted family
// directory is observable.
func (c *SnapshotCache) walkFamily(k SnapshotKey, fn func(SnapshotKey) bool) {
	fam := k.Family()
	entries, err := c.fs.ReadDir(c.familyDir(fam))
	if err != nil {
		if !os.IsNotExist(err) {
			c.cnt.errors.Add(1)
		}
		return
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if name := ent.Name(); !ent.IsDir() && filepath.Ext(name) == ".snap" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	self := memberName(k.Iterations, k.Scale, k.Seed)
	for _, name := range names {
		if name == self {
			continue
		}
		mk, ok := parseMemberName(fam, name)
		if !ok {
			c.cnt.errors.Add(1)
			continue
		}
		if !fn(mk) {
			return
		}
	}
}

// FamilyMembers lists every cached member of the key's derivation
// family, excluding the key itself, in name order. It reads only the
// family directory; FamilyBase is the lookup that loads members.
func (c *SnapshotCache) FamilyMembers(k SnapshotKey) []SnapshotKey {
	var out []SnapshotKey
	c.walkFamily(k, func(mk SnapshotKey) bool {
		out = append(out, mk)
		return true
	})
	return out
}

// FamilyBase returns the first member of the key's derivation family,
// in name order, whose snapshot loads — the same base a caller would
// pick by loading FamilyMembers in order — reading snapshots only up to
// it, so the snapshots it reads do not grow with the family. A member
// whose snapshot is missing or fails Load's checksum and metadata
// validation is passed over; ok is false when no member loads.
func (c *SnapshotCache) FamilyBase(k SnapshotKey) (base *Snapshot, ok bool) {
	c.walkFamily(k, func(mk SnapshotKey) bool {
		base, ok, _ = c.Load(mk)
		return !ok
	})
	return base, ok
}
