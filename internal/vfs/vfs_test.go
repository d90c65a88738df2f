package vfs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOSPassthroughRoundTrip exercises every FS method against a real
// scratch directory.
func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}

	f, err := OS.CreateTemp(sub, ".x.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Chmod(0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(sub, "x")
	if err := OS.Rename(f.Name(), dst); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(dst)
	if err != nil || string(data) != "hello world\n" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := OS.Truncate(dst, 5); err != nil {
		t.Fatal(err)
	}
	data, _ = OS.ReadFile(dst)
	if string(data) != "hello" {
		t.Fatalf("after Truncate: %q", data)
	}

	// Append-mode handle: truncate + continue writing, the journal
	// repair pattern.
	h, err := OS.OpenFile(dst, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("Y")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ = OS.ReadFile(dst)
	if string(data) != "heY" {
		t.Fatalf("after repair write: %q", data)
	}

	if err := OS.Remove(dst); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.ReadFile(dst); err == nil {
		t.Fatal("file survived Remove")
	}

	free, err := OS.Free(dir)
	if err != nil {
		t.Fatal(err)
	}
	if free == 0 {
		t.Fatal("Free reported an utterly full test filesystem")
	}
}

func TestDefault(t *testing.T) {
	if Default(nil) != OS {
		t.Fatal("Default(nil) is not OS")
	}
	f := NewFaulty(OS, Plan{})
	if Default(f) != FS(f) {
		t.Fatal("Default did not pass through a non-nil FS")
	}
}

// TestPassthroughZeroAlloc is the seam's zero-overhead contract: the
// hot journal-append path (one Write + one Sync per record) must not
// allocate when it runs through the seam — the passthrough is bare
// *os.File calls behind a zero-size interface value.
func TestPassthroughZeroAlloc(t *testing.T) {
	f, err := OS.OpenFile(filepath.Join(t.TempDir(), "j"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := []byte(`{"sweep":"fig1","point":3,"seed":42,"result":[1,2,3],"crc":123456}` + "\n")
	allocs := testing.AllocsPerRun(64, func() {
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("passthrough journal append allocates %.1f allocs/op, want 0", allocs)
	}
}
