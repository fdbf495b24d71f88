package trace

import (
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
// way a record or its snapshot can be unusable — and reads no record
// past the one it picks.
func TestFamilyBaseMatchesFirstLoadableMember(t *testing.T) {
	// A query key outside the stored family members, so no record is
	// the query's own unless a case publishes one.
	query := snapKeyFor(sampleSnapshot())
	query.Seed = 7

	// setup stores a four-member family and returns the members in
	// the order the index walks them.
	setup := func(t *testing.T) (*SnapshotCache, *faultfs.ReadCounter, []SnapshotKey) {
		fs := &faultfs.ReadCounter{FS: faultfs.OS, Ext: ".member"}
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
	recordPath := func(c *SnapshotCache, k SnapshotKey) string {
		return filepath.Join(c.familyDir(k.Family()), k.ID()+".member")
	}
	// Names that sort before every hex member ID.
	first := func(tag string) string { return strings.Repeat("0", 8) + tag + ".member" }

	cases := []struct {
		name string
		// damage breaks the family and returns the key FamilyBase is
		// asked about, the index the pick must land on (-1 for none)
		// and how many records sort before the pick and are unusable.
		damage func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (k SnapshotKey, want, passed int)
	}{
		{"clean", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			return query, 0, 0
		}},
		{"torn record sorted first", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			overwrite(t, filepath.Join(c.familyDir(query.Family()), first("torn")), []byte("torn"))
			overwrite(t, recordPath(c, m[0]), []byte("HMPTFMBR torn"))
			return query, 1, 2
		}},
		{"renamed record", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			if err := os.Rename(recordPath(c, m[0]), filepath.Join(c.familyDir(query.Family()), first("alias"))); err != nil {
				t.Fatal(err)
			}
			return query, 1, 1
		}},
		{"record for the key itself", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			return m[0], 1, 1
		}},
		{"snapshot missing", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			if err := os.Remove(c.Path(m[0])); err != nil {
				t.Fatal(err)
			}
			return query, 1, 1
		}},
		{"snapshot corrupt", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			overwrite(t, c.Path(m[0]), []byte("not a snapshot"))
			return query, 1, 1
		}},
		{"no snapshot loads", func(t *testing.T, c *SnapshotCache, m []SnapshotKey) (SnapshotKey, int, int) {
			for _, k := range m {
				if err := os.Remove(c.Path(k)); err != nil {
					t.Fatal(err)
				}
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
			// The walk reads the records up to and including the pick
			// (or every record when nothing loads), and none after it.
			wantReads := int64(passed)
			if ok {
				wantReads++
			}
			if reads != wantReads {
				t.Errorf("FamilyBase read %d member records, want %d", reads, wantReads)
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
