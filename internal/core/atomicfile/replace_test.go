package atomicfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesWhole pins the replacement: an existing file holds
// exactly the new bytes afterwards, however much longer the old ones
// were, no temp file lingers beside it, and a write that fails leaves
// nothing behind.
func TestWriteReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "findings.json")
	if err := Write(path, bytes.Repeat([]byte("x"), 5000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("small"), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "small" {
		t.Fatalf("file holds %q (%v), want small", b, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %v, want only findings.json", entries)
	}
	if err := Write(filepath.Join(dir, "absent", "f.json"), []byte("small"), 0o644); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed write left %v behind", entries)
	}
}
