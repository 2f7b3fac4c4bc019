package vfs

import (
	"errors"
	"fmt"
)

// ErrCrossLink is Link's refusal to hard-link a directory.
var ErrCrossLink = errors.New("vfs: hard link to directory not permitted")

// Rmdir removes an empty directory at p.
func (fs *FS) Rmdir(cwd, p string) error {
	r, err := fs.Resolve(cwd, p, false)
	if err != nil {
		return err
	}
	if r.Node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, r.Path)
	}
	if r.Node.Type != TypeDir {
		return fmt.Errorf("%w: %s", ErrNotDir, r.Path)
	}
	if len(r.Node.kids) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, r.Path)
	}
	if r.Parent == nil {
		return fmt.Errorf("%w: cannot remove root", ErrBusy)
	}
	parent := fs.own(r.Parent)
	delete(parent.kids, r.Name)
	parent.Gen++
	return nil
}

// Link creates a hard link at newp to the inode named by oldp. Directories
// may not be hard-linked.
func (fs *FS) Link(cwd, oldp, newp string) error {
	ro, err := fs.Resolve(cwd, oldp, true)
	if err != nil {
		return err
	}
	if ro.Node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, ro.Path)
	}
	if ro.Node.Type == TypeDir {
		return fmt.Errorf("%w: %s", ErrCrossLink, ro.Path)
	}
	rn, err := fs.Resolve(cwd, newp, false)
	if err != nil {
		return err
	}
	if rn.Node != nil {
		return fmt.Errorf("%w: %s", ErrExist, rn.Path)
	}
	if rn.Parent == nil {
		return fmt.Errorf("%w: cannot link at root", ErrInvalid)
	}
	parent := fs.own(rn.Parent)
	parent.kids[rn.Name] = ro.Node
	parent.Gen++
	fs.own(ro.Node).Nlink++
	return nil
}
