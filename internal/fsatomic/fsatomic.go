// Package fsatomic publishes files atomically: content is staged into a
// uniquely named temporary file in the target directory and renamed over
// the destination in one step. Readers therefore only ever observe a
// complete file — never a partial write — and any number of concurrent
// writers (goroutines or separate processes sharing one cache directory)
// can publish the same path without tearing each other's entries; the
// last rename wins whole. Both content-addressed on-disk caches (the
// snapshot cache and the analysis cache) publish through this package,
// which is what makes them safe for concurrent multi-process campaigns.
package fsatomic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hmpt/internal/faultfs"
)

// PublishFS atomically writes data to path through fs (nil means the
// real filesystem), so a faultfs.Injector can exercise each failure
// point. Any number of concurrent publishers may race on one path: the
// last rename wins whole.
func PublishFS(fs faultfs.FS, path string, data []byte) error {
	return publish(fs, path, data, func(fs faultfs.FS, tmp, path string) error {
		if err := fs.Rename(tmp, path); err != nil {
			return fmt.Errorf("fsatomic: publishing %s: %w", filepath.Base(path), err)
		}
		return nil
	})
}

// PublishExclusiveFS atomically creates path with the given content,
// failing with an os.IsExist error when path already exists — the
// claim half of the shard lease protocol. The final step is a hard link
// instead of a rename: link(2) is atomic and refuses to replace an
// existing name, so of any number of concurrent claimants (goroutines
// or separate processes) exactly one wins and every loser observes the
// EEXIST.
func PublishExclusiveFS(fs faultfs.FS, path string, data []byte) error {
	return publish(fs, path, data, func(fs faultfs.FS, tmp, path string) error {
		err := fs.Link(tmp, path)
		if err == nil || os.IsExist(err) || errors.Is(err, os.ErrExist) {
			// Not wrapped in a message: callers branch on IsExist to
			// tell "lost the claim race" from a real failure.
			return err
		}
		return fmt.Errorf("fsatomic: claiming %s: %w", filepath.Base(path), err)
	})
}

// IsStaging reports whether the base name belongs to a staging file of
// this package's publishes: "." + the destination's base name + ".tmp"
// + a random suffix. A publish killed between staging and placing leaves
// one behind, and the stale-file sweeps find them by this test.
func IsStaging(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp")
}

// publish stages data in a uniquely named temporary file in path's
// directory (renames and links across filesystems are not atomic), so
// concurrent publishers never collide on the staging file, then moves
// it into place with place. The staging name is always removed: on any
// failure the destination is untouched and nothing is left behind.
func publish(fs faultfs.FS, path string, data []byte, place func(fs faultfs.FS, tmp, path string) error) error {
	if fs == nil {
		fs = faultfs.OS
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := fs.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return fmt.Errorf("fsatomic: staging %s: %w", base, err)
	}
	defer fs.Remove(tmp.Name()) // a no-op after a rename, drops the extra name after a link
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("fsatomic: writing %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fsatomic: writing %s: %w", base, err)
	}
	return place(fs, tmp.Name(), path)
}
