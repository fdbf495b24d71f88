package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hmpt/internal/faultfs"
)

// memFS is an in-memory faultfs.FS. The benchmark's cache and shard
// trees live in one, behind the program's own filesystem seam, instead
// of on the disk under the checkout: on an ext4 checkout (2-vCPU VM)
// the sharded operation drifted from 120 to 260 ms within minutes,
// which no bound can absorb. It keeps the semantics the program relies on — atomic
// rename over an existing file, link failing with an exist error,
// not-exist errors os.IsNotExist recognises — and counts the bytes it
// holds so the live-heap metric can leave them out.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]map[string]bool // dir -> child name -> is a dir
	seq   uint64
	bytes int64
}

type memFile struct {
	data  []byte
	mod   time.Time
	links int // paths naming the file; its bytes go when the last goes
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string]*memFile), dirs: map[string]map[string]bool{"/": {}}}
}

var _ faultfs.FS = (*memFS)(nil)

// clean maps p into the filesystem's key space.
func clean(p string) string { return filepath.Clean("/" + p) }

// clone copies the whole tree, file contents included, into a new
// filesystem: the template copy a sharded operation starts from.
func (m *memFS) clone() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := &memFS{files: make(map[string]*memFile, len(m.files)), dirs: make(map[string]map[string]bool, len(m.dirs)), seq: m.seq}
	for d, children := range m.dirs {
		c := make(map[string]bool, len(children))
		for name, isDir := range children {
			c[name] = isDir
		}
		out.dirs[d] = c
	}
	copies := make(map[*memFile]*memFile, len(m.files))
	for p, f := range m.files {
		g, ok := copies[f]
		if !ok {
			g = &memFile{data: append([]byte(nil), f.data...), mod: f.mod}
			copies[f] = g
			out.bytes += int64(len(g.data))
		}
		g.links++
		out.files[p] = g
	}
	return out
}

// held returns the bytes of file data the filesystem holds.
func (m *memFS) held() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// mkdirs creates p and its parents; the caller holds mu. The root
// always exists, which ends the recursion.
func (m *memFS) mkdirs(p string) {
	if _, ok := m.dirs[p]; ok {
		return
	}
	parent := filepath.Dir(p)
	m.mkdirs(parent)
	m.dirs[p] = make(map[string]bool)
	m.dirs[parent][filepath.Base(p)] = true
}

// put names f at p, replacing any file there; the caller holds mu.
func (m *memFS) put(p string, f *memFile) {
	if prev, ok := m.files[p]; ok {
		if prev == f {
			return
		}
		m.drop(p)
	}
	m.mkdirs(filepath.Dir(p))
	m.dirs[filepath.Dir(p)][filepath.Base(p)] = false
	m.files[p] = f
	f.links++
}

// drop removes the name p; the caller holds mu.
func (m *memFS) drop(p string) {
	f := m.files[p]
	delete(m.dirs[filepath.Dir(p)], filepath.Base(p))
	delete(m.files, p)
	if f.links--; f.links == 0 {
		m.bytes -= int64(len(f.data))
	}
}

func notExist(op, p string) error { return &fs.PathError{Op: op, Path: p, Err: fs.ErrNotExist} }

func (m *memFS) ReadFile(p string) ([]byte, error) {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[p]
	if !ok {
		return nil, notExist("open", p)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *memFS) ReadDir(p string) ([]os.DirEntry, error) {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	children, ok := m.dirs[p]
	if !ok {
		return nil, notExist("open", p)
	}
	out := make([]os.DirEntry, 0, len(children))
	for name, isDir := range children {
		out = append(out, m.info(filepath.Join(p, name), isDir))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) MkdirAll(p string, _ os.FileMode) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; ok {
		return &fs.PathError{Op: "mkdir", Path: p, Err: fs.ErrExist}
	}
	m.mkdirs(p)
	return nil
}

func (m *memFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	name := fmt.Sprint(m.seq)
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		name = pattern[:i] + name + pattern[i+1:]
	} else {
		name = pattern + name
	}
	p := clean(filepath.Join(dir, name))
	if _, ok := m.dirs[filepath.Dir(p)]; !ok {
		return nil, notExist("open", p)
	}
	m.put(p, &memFile{mod: time.Now()})
	return &memTemp{m: m, path: p}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	if oldpath == newpath {
		return nil
	}
	m.put(newpath, f)
	m.drop(oldpath)
	return nil
}

func (m *memFS) Remove(p string) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; ok {
		m.drop(p)
		return nil
	}
	if children, ok := m.dirs[p]; ok && len(children) == 0 && p != "/" {
		delete(m.dirs, p)
		delete(m.dirs[filepath.Dir(p)], filepath.Base(p))
		return nil
	}
	return notExist("remove", p)
}

func (m *memFS) Link(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	if _, ok := m.files[newpath]; ok {
		return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: fs.ErrExist}
	}
	if _, ok := m.dirs[newpath]; ok {
		return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: fs.ErrExist}
	}
	m.put(newpath, f)
	return nil
}

func (m *memFS) Stat(p string) (os.FileInfo, error) {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; ok {
		return m.info(p, false), nil
	}
	if _, ok := m.dirs[p]; ok {
		return m.info(p, true), nil
	}
	return nil, notExist("stat", p)
}

// info describes the entry at p; the caller holds mu.
func (m *memFS) info(p string, dir bool) memInfo {
	i := memInfo{name: filepath.Base(p), dir: dir}
	if f, ok := m.files[p]; ok {
		i.size, i.mod = int64(len(f.data)), f.mod
	}
	return i
}

// memTemp is a staged file; writes land in the filesystem as they go.
type memTemp struct {
	m    *memFS
	path string
}

func (t *memTemp) Write(b []byte) (int, error) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	f, ok := t.m.files[t.path]
	if !ok {
		return 0, notExist("write", t.path)
	}
	f.data = append(f.data, b...)
	f.mod = time.Now()
	t.m.bytes += int64(len(b))
	return len(b), nil
}

func (t *memTemp) Close() error { return nil }
func (t *memTemp) Name() string { return t.path }

// memInfo is both the os.FileInfo and the os.DirEntry of an entry.
type memInfo struct {
	name string
	size int64
	mod  time.Time
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return i.mod }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() os.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) Type() os.FileMode          { return i.Mode().Type() }
func (i memInfo) Info() (os.FileInfo, error) { return i, nil }
