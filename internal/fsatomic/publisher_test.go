package fsatomic

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hmpt/internal/faultfs"
)

// countTemps counts leftover staging files in dir.
func countTemps(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			n++
		}
	}
	return n
}

// TestPublisherAbsorbsTransientFaults: a flaky device (EIO) is retried
// and the caller never sees the fault.
func TestPublisherAbsorbsTransientFaults(t *testing.T) {
	dir := t.TempDir()
	// MaxFaults 1: the first write-path operation faults, every retry
	// succeeds.
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Config{Seed: 9, WriteEIO: 1, MaxFaults: 1})
	p := &Publisher{FS: inj, Backoff: time.Microsecond}
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("x")); err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	st := p.Stats()
	if st.Absorbed != 1 || st.Retries < 1 {
		t.Errorf("stats = %+v, want >=1 retry and 1 absorbed", st)
	}
	if p.Degraded() {
		t.Error("publisher degraded after an absorbed transient fault")
	}
	if n := countTemps(t, dir); n != 0 {
		t.Errorf("%d staging files left behind", n)
	}
}

// TestPublisherDemotesOnENOSPC: a full disk demotes immediately — no
// retries — and subsequent publishes fast-fail with ErrDegraded.
func TestPublisherDemotesOnENOSPC(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Config{Seed: 2, WriteENOSPC: 1})
	p := &Publisher{FS: inj, Backoff: time.Microsecond, ReprobeAfter: time.Hour}
	err := p.Publish(filepath.Join(dir, "entry"), []byte("x"))
	if err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("first publish = %v, want the raw ENOSPC", err)
	}
	if !p.Degraded() {
		t.Fatal("publisher not degraded after ENOSPC")
	}
	st := p.Stats()
	if st.Retries != 0 {
		t.Errorf("retried a persistent fault %d times", st.Retries)
	}
	if st.Demotions != 1 {
		t.Errorf("demotions = %d, want 1", st.Demotions)
	}
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Errorf("degraded publish = %v, want ErrDegraded", err)
	}
	if got := p.Stats().Suppressed; got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
	if faults := inj.Stats().Total(); faults != 1 {
		t.Errorf("degraded publish touched the filesystem: %d faults injected", faults)
	}
}

// TestPublisherDemotesOnExhaustedRetries: persistent EIO (not just one
// blip) also demotes once the retry budget is spent.
func TestPublisherDemotesOnExhaustedRetries(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Config{Seed: 4, WriteEIO: 1})
	p := &Publisher{FS: inj, Retries: 3, Backoff: time.Microsecond, ReprobeAfter: time.Hour}
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("x")); err == nil {
		t.Fatal("publish succeeded against a permanently failing device")
	}
	if !p.Degraded() {
		t.Fatal("publisher not degraded after exhausting retries")
	}
	if st := p.Stats(); st.Retries != 3 {
		t.Errorf("retries = %d, want the full budget of 3", st.Retries)
	}
}

// TestPublisherReprobeRecovers: the storm-then-recover cycle — demote
// under faults, fast-fail while the probe timer runs, then one re-probe
// against the healed filesystem clears degraded mode.
func TestPublisherReprobeRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Config{Seed: 6, WriteENOSPC: 1, MaxFaults: 1})
	p := &Publisher{FS: inj, Backoff: time.Microsecond, ReprobeAfter: 10 * time.Millisecond}
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("x")); err == nil {
		t.Fatal("want the injected ENOSPC")
	}
	if !p.Degraded() {
		t.Fatal("not degraded")
	}
	// Before the interval elapses: fast-fail.
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("pre-probe publish = %v, want ErrDegraded", err)
	}
	time.Sleep(15 * time.Millisecond)
	// Budget spent: the filesystem has healed, the probe succeeds.
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("healed")); err != nil {
		t.Fatalf("re-probe publish = %v, want recovery", err)
	}
	if p.Degraded() {
		t.Error("still degraded after a successful re-probe")
	}
	st := p.Stats()
	if st.Reprobes != 1 || st.Recoveries != 1 {
		t.Errorf("stats = %+v, want 1 reprobe and 1 recovery", st)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "entry")); err != nil || string(b) != "healed" {
		t.Errorf("post-recovery entry = %q, %v", b, err)
	}
}

// TestPublisherFailedReprobeRearms: a failed probe keeps the publisher
// degraded and re-arms the timer.
func TestPublisherFailedReprobeRearms(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Config{Seed: 8, WriteENOSPC: 1})
	p := &Publisher{FS: inj, Backoff: time.Microsecond, ReprobeAfter: time.Millisecond}
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("x")); err == nil {
		t.Fatal("want the injected ENOSPC")
	}
	time.Sleep(2 * time.Millisecond)
	if err := p.Publish(filepath.Join(dir, "entry"), []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("failed re-probe = %v, want ErrDegraded wrap", err)
	}
	if !p.Degraded() {
		t.Error("failed re-probe cleared degraded mode")
	}
	if st := p.Stats(); st.Reprobes != 1 || st.Recoveries != 0 {
		t.Errorf("stats = %+v, want 1 reprobe, 0 recoveries", st)
	}
}

// mkdirFaults fails the first fail MkdirAll calls with EIO and counts
// every call.
type mkdirFaults struct {
	faultfs.FS
	fail, calls int
}

func (m *mkdirFaults) MkdirAll(path string, perm os.FileMode) error {
	m.calls++
	if m.calls <= m.fail {
		return syscall.EIO
	}
	return m.FS.MkdirAll(path, perm)
}

// TestPublisherCreatesMissingDirectory: a publish into a directory that
// does not exist yet creates it inside the attempt, so a failed mkdir is
// retried and counted like any other write fault, and a degraded
// publisher creates nothing.
func TestPublisherCreatesMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "family", "entry")

	// One failed mkdir: retried, then absorbed.
	fs := &mkdirFaults{FS: faultfs.OS, fail: 1}
	p := &Publisher{FS: fs, Backoff: time.Microsecond}
	if err := p.Publish(path, []byte("x")); err != nil {
		t.Fatalf("publish into a missing directory: %v", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "x" {
		t.Fatalf("read back %q, %v", b, err)
	}
	if st := p.Stats(); st.Retries != 1 || st.Absorbed != 1 || fs.calls != 2 {
		t.Errorf("stats = %+v after %d mkdirs, want 1 retry, 1 absorbed, 2 mkdirs", st, fs.calls)
	}

	// Every mkdir fails: the budget runs out, the publisher demotes,
	// and the next publish is suppressed without another mkdir.
	path = filepath.Join(t.TempDir(), "family", "entry")
	fs = &mkdirFaults{FS: faultfs.OS, fail: 1 << 30}
	p = &Publisher{FS: fs, Backoff: time.Microsecond, ReprobeAfter: time.Hour}
	if err := p.Publish(path, []byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("publish with a failing mkdir = %v, want EIO", err)
	}
	if !p.Degraded() || fs.calls != 3 {
		t.Fatalf("degraded=%v after %d mkdirs, want degraded after 3 (1 try + 2 retries)", p.Degraded(), fs.calls)
	}
	if err := p.Publish(path, []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Errorf("degraded publish = %v, want ErrDegraded", err)
	}
	if st := p.Stats(); st.Suppressed != 1 || fs.calls != 3 {
		t.Errorf("stats = %+v after %d mkdirs, want 1 suppressed and no further mkdir", st, fs.calls)
	}
	if _, err := os.Stat(filepath.Dir(path)); !os.IsNotExist(err) {
		t.Errorf("directory exists after every mkdir failed: %v", err)
	}
}
