package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
)

func snapKeyFor(s *Snapshot) SnapshotKey {
	return SnapshotKey{
		Workload: s.Meta.Workload, Config: s.Meta.Config,
		Threads: s.Meta.Threads, Scale: s.Meta.Scale, Seed: s.Meta.Seed,
		SamplePeriod: s.Meta.SamplePeriod, SampleBudget: int64(s.Meta.SampleBudget),
		Iterations: s.Meta.Iterations,
	}
}

// TestSnapshotCacheCorruptEntryHeals mirrors the analysis-cache healing
// contract on the snapshot rung: a corrupt on-disk entry is a non-fatal
// error (campaign treats it as a miss), bumps Stats().Errors, and the
// next Store overwrites it so the following Load round-trips.
func TestSnapshotCacheCorruptEntryHeals(t *testing.T) {
	cache, err := NewSnapshotCache(filepath.Join(t.TempDir(), "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot()
	key := snapKeyFor(s)
	if err := cache.Store(key, s); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(cache.Path(key))
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func() []byte{
		"truncated": func() []byte { return good[:len(good)/2] },
		"bit flip": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/3] ^= 0x40
			return b
		},
		"garbage": func() []byte { return []byte("not a snapshot") },
	}
	var wantErrs int64
	for name, corrupt := range corruptions {
		if err := os.WriteFile(cache.Path(key), corrupt(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := cache.Load(key); err == nil {
			t.Errorf("%s: Load ok=%v err=nil, want a non-fatal error", name, ok)
		}
		wantErrs++
		if got := cache.Stats().Errors; got != wantErrs {
			t.Errorf("%s: Stats().Errors = %d, want %d", name, got, wantErrs)
		}
	}

	// Healing: Store overwrites the corruption, Load round-trips.
	if err := cache.Store(key, s); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cache.Load(key)
	if err != nil || !ok {
		t.Fatalf("healed entry: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("healed entry does not round-trip")
	}
}

// TestFamilyIndexCorruptRecordsHeal: a family directory polluted with a
// file whose name does not parse, or with a snapshot moved to another
// member's name, degrades to non-fatal misses counted in Stats().Errors,
// and the next Store of the member heals the family.
func TestFamilyIndexCorruptRecordsHeal(t *testing.T) {
	cache, err := NewSnapshotCache(filepath.Join(t.TempDir(), "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	base := sampleSnapshot()
	sibling := sampleSnapshot()
	sibling.Meta.Iterations = base.Meta.Iterations + 1
	baseKey, sibKey := snapKeyFor(base), snapKeyFor(sibling)
	if err := cache.Store(baseKey, base); err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(sibKey, sibling); err != nil {
		t.Fatal(err)
	}
	if members := cache.FamilyMembers(baseKey); len(members) != 1 || members[0] != sibKey {
		t.Fatalf("family members = %v, want exactly the sibling", members)
	}
	errsBefore := cache.Stats().Errors

	// An unparsable name is skipped without failing the listing, and
	// the skip is observable in Stats.
	junk := filepath.Join(cache.familyDir(baseKey.Family()), "deadbeef.snap")
	if err := os.WriteFile(junk, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if members := cache.FamilyMembers(baseKey); len(members) != 1 || members[0] != sibKey {
		t.Errorf("family members = %v with an unparsable name, want exactly the sibling", members)
	}
	if got := cache.Stats().Errors; got != errsBefore+1 {
		t.Errorf("Stats().Errors = %d, want %d after an unparsable name", got, errsBefore+1)
	}
	if err := os.Remove(junk); err != nil {
		t.Fatal(err)
	}

	// The sibling's snapshot moved to another member's name: the name
	// lists, but Load's metadata match rejects it, naming the field
	// that differs, and FamilyBase passes it over.
	moved := sibKey
	moved.Iterations++
	if err := os.Rename(cache.Path(sibKey), cache.Path(moved)); err != nil {
		t.Fatal(err)
	}
	if members := cache.FamilyMembers(baseKey); len(members) != 1 || members[0] != moved {
		t.Errorf("family members = %v, want the moved name", members)
	}
	_, ok, err := cache.Load(moved)
	if ok || err == nil {
		t.Fatalf("loading a moved snapshot: ok=%v err=%v, want a mismatch error", ok, err)
	}
	held, wanted := fmt.Sprintf("iters=%d", sibKey.Iterations), fmt.Sprintf("iters=%d", moved.Iterations)
	if msg := err.Error(); !strings.Contains(msg, held) || !strings.Contains(msg, wanted) {
		t.Errorf("mismatch error %q does not show both iteration counts", msg)
	}
	if _, ok := cache.FamilyBase(baseKey); ok {
		t.Error("FamilyBase served a moved snapshot")
	}
	if got := cache.Stats().Errors; got != errsBefore+3 {
		t.Errorf("Stats().Errors = %d, want %d after two loads of a moved snapshot", got, errsBefore+3)
	}

	// Healing: re-storing the sibling puts it back under its own name,
	// where it sorts before the moved file and serves as the base.
	if err := cache.Store(sibKey, sibling); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.FamilyBase(baseKey)
	if !ok || !reflect.DeepEqual(got, sibling) {
		t.Errorf("healed family: FamilyBase ok=%v, want the sibling", ok)
	}
}

// renameCounter counts the renames that publish files.
type renameCounter struct {
	faultfs.FS
	renames int
}

func (r *renameCounter) Rename(oldpath, newpath string) error {
	r.renames++
	return r.FS.Rename(oldpath, newpath)
}

// TestStorePublishesOnce: a Store is one publish, into a family
// directory it creates on first use, and the entry it publishes is
// both loadable and listed in its family.
func TestStorePublishesOnce(t *testing.T) {
	fs := &renameCounter{FS: faultfs.OS}
	cache, err := NewSnapshotCacheFS(filepath.Join(t.TempDir(), "snapshots"), fs)
	if err != nil {
		t.Fatal(err)
	}
	base, sibling := sampleSnapshot(), sampleSnapshot()
	sibling.Meta.Seed++
	for i, s := range []*Snapshot{base, sibling} {
		if err := cache.Store(snapKeyFor(s), s); err != nil {
			t.Fatal(err)
		}
		if fs.renames != i+1 {
			t.Fatalf("%d stores made %d publishes, want %d", i+1, fs.renames, i+1)
		}
	}
	if members := cache.FamilyMembers(snapKeyFor(base)); len(members) != 1 || members[0] != snapKeyFor(sibling) {
		t.Errorf("family members = %v, want exactly the sibling", members)
	}
	if _, ok, err := cache.Load(snapKeyFor(sibling)); !ok || err != nil {
		t.Errorf("stored sibling: ok=%v err=%v", ok, err)
	}
}

// TestSnapshotCacheComputeThroughUnderENOSPC: persistent write failure
// demotes the rung's publisher to degraded mode — stores fail fast as
// cache errors — while the read path keeps serving hits untouched:
// read-only / compute-through degradation.
func TestSnapshotCacheComputeThroughUnderENOSPC(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snapshots")
	s := sampleSnapshot()
	key := snapKeyFor(s)

	// Warm the entry through a healthy cache sharing the directory.
	healthy, err := NewSnapshotCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Store(key, s); err != nil {
		t.Fatal(err)
	}

	inj := faultfs.NewInjector(faultfs.OS, faultfs.Config{Seed: 11, WriteENOSPC: 1})
	inj.SetArmed(false) // open the cache clean, then let the storm begin
	cache, err := NewSnapshotCacheFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	cache.Publisher().ReprobeAfter = time.Hour
	inj.SetArmed(true)

	sibling := sampleSnapshot()
	sibling.Meta.Iterations = s.Meta.Iterations + 1
	if err := cache.Store(snapKeyFor(sibling), sibling); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("store on a full disk = %v, want ENOSPC", err)
	}
	if !cache.Degraded() {
		t.Fatal("cache not degraded after ENOSPC")
	}
	if err := cache.Store(snapKeyFor(sibling), sibling); !errors.Is(err, fsatomic.ErrDegraded) {
		t.Errorf("degraded store = %v, want ErrDegraded", err)
	}
	// Reads are unaffected: warm serving continues.
	got, ok, err := cache.Load(key)
	if err != nil || !ok {
		t.Fatalf("degraded-mode load: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("degraded-mode load does not round-trip")
	}
	if st := cache.Stats(); st.Errors < 2 {
		t.Errorf("Stats().Errors = %d, want both failed stores counted", st.Errors)
	}
}

// TestSnapshotCacheTornWriteHeals: a torn publish (the injector lies
// about a successful write) is caught by the codec checksum on Load —
// an error, never silent garbage — and the next Store heals it.
func TestSnapshotCacheTornWriteHeals(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Config{Seed: 13, TornWrite: 1, MaxFaults: 1})
	cache, err := NewSnapshotCacheFS(filepath.Join(t.TempDir(), "snapshots"), inj)
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot()
	key := snapKeyFor(s)
	if err := cache.Store(key, s); err != nil {
		t.Fatalf("torn store reported %v, want silent success", err)
	}
	if inj.Stats().Torn != 1 {
		t.Fatalf("injector stats = %+v, want 1 torn write", inj.Stats())
	}
	if _, ok, err := cache.Load(key); err == nil {
		t.Fatalf("loading a torn entry: ok=%v err=nil, want checksum failure", ok)
	}
	// Budget spent: the next Store publishes whole and heals the entry.
	if err := cache.Store(key, s); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cache.Load(key)
	if err != nil || !ok {
		t.Fatalf("healed entry: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("healed entry does not round-trip")
	}
}
