package shard

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"hmpt/internal/core"
	"hmpt/internal/faultfs"
)

// FuzzLeaseHead writes arbitrary bytes as the head of a cell's lease
// chain and lets a claimant try the cell. tryAcquire must never panic;
// a head that does not parse, or names another schema or manifest, is
// reclaimed at the next generation; a released head is claimed without
// a reclaim; an expired one is reclaimed; and a parsed, unreleased head
// of this manifest whose expiry is still ahead is never taken.
func FuzzLeaseHead(f *testing.F) {
	now := time.Now()
	for _, rec := range []leaseRecord{
		{Schema: leaseSchema, Manifest: "m", Owner: "peer", Expires: now.Add(time.Hour).UnixNano()},
		{Schema: leaseSchema, Manifest: "m", Owner: "peer", Expires: now.Add(-time.Hour).UnixNano()},
		{Schema: leaseSchema, Manifest: "m", Owner: "peer", Expires: now.Add(time.Hour).UnixNano(), Released: true},
		{Schema: leaseSchema, Manifest: "other", Owner: "peer", Expires: now.Add(time.Hour).UnixNano()},
		{Schema: "hmpt-lease/v1", Manifest: "m", Owner: "peer", Expires: now.Add(time.Hour).UnixNano()},
	} {
		raw, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range []string{"", "null", "{}", "torn{", `{"schema":"hmpt-lease/v2","manifest":"m","released":2}`} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, head []byte) {
		dir := t.TempDir()
		lm := &leaseManager{fs: faultfs.OS, dir: dir, manifest: "m", owner: "claimant", ttl: time.Minute, ledger: core.NewLedger(nil)}
		if err := os.WriteFile(lm.path(0, 1), head, 0o644); err != nil {
			t.Fatal(err)
		}
		before := time.Now().UnixNano()
		l, err := lm.tryAcquire(0)
		after := time.Now().UnixNano()
		if err != nil {
			t.Fatalf("tryAcquire: %v", err)
		}

		var rec leaseRecord
		valid := json.Unmarshal(head, &rec) == nil && rec.Schema == leaseSchema && rec.Manifest == lm.manifest
		switch {
		case valid && !rec.Released && rec.Expires > after:
			if l != nil {
				t.Fatalf("took a live lease (expires in %v): %s", time.Duration(rec.Expires-after), head)
			}
		case valid && !rec.Released && rec.Expires > before:
			// Expired during the call: either outcome is correct.
		case l == nil:
			t.Fatalf("head %q not claimed, want a claim at generation 2", head)
		case l.gen != 2:
			t.Fatalf("claimed generation %d, want 2", l.gen)
		case (valid && rec.Released) != (lm.ledger.Count(core.LeaseReclaim) == 0):
			t.Fatalf("head %q: %d reclaims, want a reclaim exactly when the head is not a released lease", head, lm.ledger.Count(core.LeaseReclaim))
		}
	})
}
