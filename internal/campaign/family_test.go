package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/trace"
)

// TestFamilyMissReadsFlat: a campaign miss on a new seed finds its
// derivation base on disk by reading one family-index record beyond the
// invalid ones sorted ahead of it, whether the family holds 4 members
// or 100 — and still derives it across seeds with zero kernels.
func TestFamilyMissReadsFlat(t *testing.T) {
	const torn = 3 // invalid records sorted before every member
	for _, size := range []int{4, 100} {
		t.Run(fmt.Sprintf("members=%d", size), func(t *testing.T) {
			dir := t.TempDir()
			m := testMatrix(t)
			m.Workloads = m.Workloads[1:2] // stream: a SeedFamily workload
			m.Platforms = m.Platforms[:1]
			w := m.Workloads[0]
			withSeed := func(seed uint64) core.Options {
				o := w.Options
				o.Seed = seed
				return o
			}

			// Populate the family: one real capture, the rest derived
			// from it and stored under their own keys.
			cache, err := trace.NewSnapshotCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			base, err := core.Capture(w.Factory(), withSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := cache.Store(core.SnapshotKeyFor(w.Name, withSeed(1)), base); err != nil {
				t.Fatal(err)
			}
			for seed := uint64(2); seed <= uint64(size); seed++ {
				snap, err := core.DeriveSnapshot(base, w.Factory(), withSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				if err := cache.Store(core.SnapshotKeyFor(w.Name, withSeed(seed)), snap); err != nil {
					t.Fatal(err)
				}
			}
			miss := core.SnapshotKeyFor(w.Name, withSeed(uint64(size)+1000))
			if got := len(cache.FamilyMembers(miss)); got != size {
				t.Fatalf("family lists %d members, want %d", got, size)
			}
			famDir := filepath.Join(cache.Dir(), "families", miss.Family().ID())
			for i := 0; i < torn; i++ {
				name := fmt.Sprintf("00000000torn%d.member", i)
				if err := os.WriteFile(filepath.Join(famDir, name), []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// A fresh engine — another process — misses the new seed.
			fs := &faultfs.ReadCounter{FS: faultfs.OS, Ext: ".member"}
			fresh, err := trace.NewSnapshotCacheFS(dir, fs)
			if err != nil {
				t.Fatal(err)
			}
			m.Variants = []Variant{{Name: "new-seed", Apply: func(o *core.Options) { o.Seed = miss.Seed }}}
			kernels := core.KernelExecutions()
			res, err := (&Engine{Cache: fresh}).Run(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			if got := fs.Reads(); got > torn+1 {
				t.Errorf("miss read %d member records, want at most %d (%d invalid + 1)", got, torn+1, torn)
			}
			if got := core.KernelExecutions() - kernels; got != 0 {
				t.Errorf("miss executed %d kernels, want 0", got)
			}
			cell := res.Cells[0]
			if res.Executions != 0 || res.Derived != 1 || res.SeedDerived != 1 || !cell.Derived || !cell.SeedDerived {
				t.Errorf("executions=%d derived=%d seed-derived=%d cell derived=%v seed_derived=%v, want 0/1/1/true/true",
					res.Executions, res.Derived, res.SeedDerived, cell.Derived, cell.SeedDerived)
			}
		})
	}
}
