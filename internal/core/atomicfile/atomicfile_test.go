//go:build unix

package atomicfile

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteModeFollowsWriteFile pins the mode a write leaves: a new
// file gets perm less the umask, an existing file keeps the mode it
// had, and the directory holds nothing else afterwards.
func TestWriteModeFollowsWriteFile(t *testing.T) {
	old := syscall.Umask(0o077)
	defer syscall.Umask(old)
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	mode := func() os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	if err := Write(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if m := mode(); m != 0o600 {
		t.Fatalf("new file mode = %v under umask 077, want 0600", m)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	if m := mode(); m != 0o640 {
		t.Fatalf("rewritten file mode = %v, want its own 0640", m)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "two" {
		t.Fatalf("file holds %q (%v), want two", b, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %v, want only out.json", entries)
	}
}
