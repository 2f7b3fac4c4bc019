// Package atomicfile replaces a file whole: readers and crashed writers
// see the old bytes or the new ones, never a prefix.
package atomicfile

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// Write writes b to path through a temp file in the same directory and
// a rename. The mode follows os.WriteFile: a new file gets perm less
// the umask, and a file that exists keeps its mode. Only a failed write
// leaves a temp file to remove; a renamed one no longer exists under
// its temp name.
func Write(path string, b []byte, perm os.FileMode) (err error) {
	tmp, err := create(path, perm)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if fi, err := os.Stat(path); err == nil {
		if err := tmp.Chmod(fi.Mode().Perm()); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return os.Rename(tmp.Name(), path)
}

// create makes a new temp file beside path. Opening it with perm, as
// os.WriteFile opens a new file, lets the kernel apply the umask.
func create(path string, perm os.FileMode) (*os.File, error) {
	prefix := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	for try := 0; ; try++ {
		f, err := os.OpenFile(prefix+strconv.FormatUint(uint64(rand.Uint32()), 10), os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if errors.Is(err, fs.ErrExist) && try < 100 {
			continue
		}
		return f, err
	}
}
