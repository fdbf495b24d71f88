package trace

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hmpt/internal/faultfs"
)

// firstLoadable is the base selection FamilyBase replaces: list the
// whole family, then take the first member whose snapshot loads.
func firstLoadable(c *SnapshotCache, k SnapshotKey) (SnapshotKey, bool) {
	for _, mk := range c.FamilyMembers(k) {
		if _, ok, err := c.Load(mk); err == nil && ok {
			return mk, true
		}
	}
	return SnapshotKey{}, false
}

// TestFamilyBaseMatchesFirstLoadableMember: FamilyBase picks the same
// base as listing the family and loading members in order, across every
// way a family file can be unusable — and reads no snapshot past the one
// it picks.
func TestFamilyBaseMatchesFirstLoadableMember(t *testing.T) {
	// A query key outside the stored family members, so no file is the
	// query's own unless a case makes one.
	query := snapKeyFor(sampleSnapshot())
	query.Seed = 7
	// A member name that sorts before every stored member: iteration
	// count 0 against the sample's 40 and up.
	first := query
	first.Iterations = 0

	// setup stores a four-member family and returns the members in
	// the order the family directory walks them.
	setup := func(t *testing.T) (*SnapshotCache, *faultfs.ReadCounter, []SnapshotKey) {
		fs := &faultfs.ReadCounter{FS: faultfs.OS, Ext: ".snap"}
		cache, err := NewSnapshotCacheFS(filepath.Join(t.TempDir(), "snapshots"), fs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s := sampleSnapshot()
			s.Meta.Iterations += i
			if err := cache.Store(snapKeyFor(s), s); err != nil {
				t.Fatal(err)
			}
		}
		members := cache.FamilyMembers(query)
		if len(members) != 4 {
			t.Fatalf("family lists %d members, want 4", len(members))
		}
		return cache, fs, members
	}

	cases := []struct {
		name string
		// damage breaks the family and returns the key FamilyBase is
		// asked about, the index the pick must land on (-1 for none)
		// and how many snapshots sort before the pick and are unusable.
		damage func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (k SnapshotKey, want, passed int)
	}{
		{"clean", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			return query, 0, 0
		}},
		{"torn record sorted first", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			// An unparsable name is skipped unread; a torn snapshot
			// under a member name is read and passed over.
			overwrite(t, filepath.Join(c.familyDir(query.Family()), "00000000torn.snap"), []byte("torn"))
			overwrite(t, c.Path(first), []byte("torn"))
			overwrite(t, c.Path(m[0]), []byte("torn"))
			return query, 1, 2
		}},
		{"renamed record", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			// A snapshot moved to another member's name fails Load's
			// metadata match.
			if err := os.Rename(c.Path(m[0]), c.Path(first)); err != nil {
				t.Fatal(err)
			}
			return query, 1, 1
		}},
		{"record for the key itself", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			return m[0], 1, 0
		}},
		{"snapshot missing", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			if err := os.Remove(c.Path(m[0])); err != nil {
				t.Fatal(err)
			}
			return query, 1, 0
		}},
		{"snapshot corrupt", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			overwrite(t, c.Path(m[0]), []byte("not a snapshot"))
			return query, 1, 1
		}},
		{"no snapshot loads", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			for _, k := range m {
				overwrite(t, c.Path(k), []byte("not a snapshot"))
			}
			return query, -1, len(m)
		}},
		{"absent family directory", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			k := query
			k.Workload = "golden.other"
			return k, -1, 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache, fs, members := setup(t)
			k, want, passed := tc.damage(t, cache, members)

			oldKey, oldOK := firstLoadable(cache, k)
			reads := fs.Reads()
			base, ok := cache.FamilyBase(k)
			reads = fs.Reads() - reads

			if ok != oldOK || ok != (want >= 0) {
				t.Fatalf("FamilyBase ok=%v, first loadable ok=%v, want %v", ok, oldOK, want >= 0)
			}
			if !ok {
				if base != nil {
					t.Error("FamilyBase returned a snapshot with ok=false")
				}
			} else {
				if got := snapKeyFor(base); got != oldKey || got != members[want] {
					t.Errorf("FamilyBase picked %+v, first loadable is %+v, want member %d", got, oldKey, want)
				}
				if snap, _, _ := cache.Load(oldKey); !reflect.DeepEqual(base, snap) {
					t.Error("FamilyBase snapshot differs from a Load of its key")
				}
			}
			// The walk reads the snapshots up to and including the pick
			// (or every one when nothing loads), and none after it.
			wantReads := int64(passed)
			if ok {
				wantReads++
			}
			if reads != wantReads {
				t.Errorf("FamilyBase read %d snapshots, want %d", reads, wantReads)
			}
		})
	}
}

func overwrite(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzMemberName: parsing a family member's file name never panics, an
// accepted name re-encodes to the same bytes, and every (iterations,
// scale, seed) — negative iterations and NaN scales included —
// round-trips through its name exactly.
func FuzzMemberName(f *testing.F) {
	fam := snapKeyFor(sampleSnapshot()).Family()
	f.Add(memberName(40, 1.5, 42), int64(40), math.Float64bits(1.5), uint64(42))
	f.Add(memberName(-1, 0, 0), int64(-1), math.Float64bits(math.Copysign(0, -1)), uint64(math.MaxUint64))
	f.Add(strings.ToUpper(memberName(10, 2, 0xabc)), int64(math.MinInt64), math.Float64bits(math.NaN()), uint64(7))
	f.Add("00000000torn.snap", int64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, name string, iterations int64, scaleBits, seed uint64) {
		if k, ok := parseMemberName(fam, name); ok {
			if again := memberName(k.Iterations, k.Scale, k.Seed); again != name {
				t.Fatalf("accepted %q re-encodes to %q", name, again)
			}
			if k.Family() != fam {
				t.Fatalf("accepted %q left its family: %+v", name, k.Family())
			}
		}
		n := memberName(int(iterations), math.Float64frombits(scaleBits), seed)
		k, ok := parseMemberName(fam, n)
		if !ok {
			t.Fatalf("rejected its own name %q", n)
		}
		if int64(k.Iterations) != iterations || math.Float64bits(k.Scale) != scaleBits || k.Seed != seed {
			t.Fatalf("%q parses to iterations=%d scale=%#x seed=%d, want %d/%#x/%d",
				n, k.Iterations, math.Float64bits(k.Scale), k.Seed, iterations, scaleBits, seed)
		}
	})
}
