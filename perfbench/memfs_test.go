package main

import (
	"os"
	"testing"

	"hmpt/internal/fsatomic"
)

func TestMemFSSemantics(t *testing.T) {
	m := newMemFS()
	if err := m.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsatomic.PublishFS(m, "/a/b/f", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := fsatomic.PublishFS(m, "/a/b/f", []byte("three")); err != nil {
		t.Fatal(err)
	}
	if raw, err := m.ReadFile("/a/b/f"); err != nil || string(raw) != "three" {
		t.Fatalf("read %q, %v", raw, err)
	}
	if ents, err := m.ReadDir("/a/b"); err != nil || len(ents) != 1 || ents[0].Name() != "f" {
		t.Fatalf("readdir %v, %v (staging files must be gone)", ents, err)
	}
	if got := m.held(); got != 5 {
		t.Errorf("held %d bytes, want 5", got)
	}
	if err := fsatomic.PublishExclusiveFS(m, "/a/b/f", []byte("x")); !os.IsExist(err) {
		t.Errorf("exclusive publish over a file: %v, want an exist error", err)
	}
	if err := m.Link("/a/b/f", "/a/g"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if got := m.held(); got != 5 {
		t.Errorf("held %d bytes with one link left, want 5", got)
	}
	if _, err := m.ReadFile("/a/b/f"); !os.IsNotExist(err) {
		t.Errorf("read removed file: %v", err)
	}
	if err := m.Remove("/a/g"); err != nil || m.held() != 0 {
		t.Errorf("remove last link: %v, held %d", err, m.held())
	}
	if _, err := m.ReadDir("/missing"); !os.IsNotExist(err) {
		t.Errorf("readdir missing: %v", err)
	}
	if err := m.Rename("/missing", "/x"); !os.IsNotExist(err) {
		t.Errorf("rename missing: %v", err)
	}
}

func TestMemFSClone(t *testing.T) {
	m := newMemFS()
	if err := fsatomic.PublishFS(m, "/d/f", []byte("abc")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
	m.MkdirAll("/d", 0o755)
	if err := fsatomic.PublishFS(m, "/d/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	c := m.clone()
	if err := fsatomic.PublishFS(c, "/d/f", []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if raw, _ := m.ReadFile("/d/f"); string(raw) != "abc" {
		t.Errorf("clone write leaked into the original: %q", raw)
	}
	if c.held() != 7 || m.held() != 3 {
		t.Errorf("held: clone %d, original %d", c.held(), m.held())
	}
}
