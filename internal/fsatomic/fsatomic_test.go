package fsatomic

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hmpt/internal/faultfs"
)

// TestPublishBasics: content lands whole, overwrites atomically, and no
// staging file survives.
func TestPublishBasics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.bin")
	if err := PublishFS(nil, path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := PublishFS(nil, path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Errorf("read %q, want %q", got, "two")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want 1 (no stranded temp files)", len(entries))
	}
}

// TestPublishConcurrent: many writers racing one path — every read of
// the final file must be one writer's payload in full, never a torn
// interleaving, and no staging files remain.
func TestPublishConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.bin")
	const writers = 16
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 4096)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := PublishFS(nil, path, payload(i)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	match := false
	for i := 0; i < writers; i++ {
		if bytes.Equal(got, payload(i)) {
			match = true
			break
		}
	}
	if !match {
		t.Error("final file is not any single writer's payload (torn publish)")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want 1", len(entries))
	}
}

// TestPublishFailureLeavesTargetIntact: a publish into a missing
// directory fails without touching anything.
func TestPublishFailureLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "entry.bin")
	if err := PublishFS(nil, path, []byte("x")); err == nil {
		t.Error("publish into a missing directory succeeded, want error")
	}
}

// TestPublishExclusiveRefusesExisting: the first exclusive publish
// creates the file, a second one fails with an os.IsExist error and
// leaves the first content, and neither leaves a staging file.
func TestPublishExclusiveRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "claim")
	if err := PublishExclusiveFS(nil, path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := PublishExclusiveFS(nil, path, []byte("second")); !os.IsExist(err) {
		t.Fatalf("second exclusive publish: %v, want an IsExist error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("read %q, %v; want %q", got, err, "first")
	}
	if n := countTemps(t, dir); n != 0 {
		t.Errorf("%d staging files left behind", n)
	}
}

// stagingRecorder records the name of every staging file it creates.
type stagingRecorder struct {
	faultfs.FS
	names []string
}

func (r *stagingRecorder) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err == nil {
		r.names = append(r.names, filepath.Base(f.Name()))
	}
	return f, err
}

// TestIsStagingMatchesPublishedStaging: IsStaging recognises the names
// both publishes actually stage under, and neither the destinations
// they publish nor ordinary cache and shard file names.
func TestIsStagingMatchesPublishedStaging(t *testing.T) {
	dir := t.TempDir()
	rec := &stagingRecorder{FS: faultfs.OS}
	if err := PublishFS(rec, filepath.Join(dir, "entry.anl"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := PublishExclusiveFS(rec, filepath.Join(dir, "cell-000001.g1.lease"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if len(rec.names) != 2 {
		t.Fatalf("recorded %d staging files, want 2", len(rec.names))
	}
	for _, name := range rec.names {
		if !IsStaging(name) {
			t.Errorf("IsStaging(%q) = false for a name publish staged", name)
		}
	}
	for _, name := range []string{"entry.anl", "cell-000001.g1.lease", "cell-000001.done", "w0.json", "3-0-7.snap"} {
		if IsStaging(name) {
			t.Errorf("IsStaging(%q) = true for a published name", name)
		}
	}
}
