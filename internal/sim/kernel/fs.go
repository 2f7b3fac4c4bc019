package kernel

import (
	"fmt"

	"repro/internal/interpose"
	"repro/internal/sim/vfs"
)

// Open flags, combinable.
const (
	ORead = 1 << iota
	OWrite
	OCreate
	OTrunc
	OExcl
	OAppend
)

// File is an open file handle. Like a real descriptor it pins the inode:
// environment perturbations after open (rename, re-link) do not change
// what the handle reads or writes — a property the TOCTTOU scenarios rely
// on to distinguish safe from unsafe code.
type File struct {
	node   *vfs.Inode
	Path   string // resolved path at open time
	flags  int
	offset int
	closed bool
}

// Info is the result of Stat/Lstat.
type Info struct {
	Path    string // resolved object identity
	Type    vfs.NodeType
	Mode    vfs.Mode
	UID     int
	GID     int
	Size    int
	Symlink bool // true when Lstat saw a symlink
}

// Open opens the file at path. With OCreate the interaction is classified
// as a create (the paper's lpr example perturbs exactly that point). The
// returned handle pins the resolved inode.
func (p *Proc) Open(site, path string, flags int, mode vfs.Mode) (*File, error) {
	op := interpose.OpOpen
	if flags&OCreate != 0 {
		op = interpose.OpCreate
	}
	c := p.begin(interpose.Call{
		Site: site, Op: op, Kind: interpose.KindFile,
		Path: path, Mode: uint16(mode), Flags: flags,
	})
	f, resolved, err := p.openLocked(c.Path, c.Flags, vfs.Mode(c.Mode))
	r := p.end(interpose.Result{Err: err}, resolved)
	if r.Err != nil {
		return nil, r.Err
	}
	return f, nil
}

// openLocked performs the open against the (possibly perturbed) world.
func (p *Proc) openLocked(path string, flags int, mode vfs.Mode) (*File, string, error) {
	res, err := p.K.FS.Resolve(p.Cwd, path, true)
	if err != nil {
		return nil, "", err
	}
	cred := p.Cred
	switch {
	case res.Node != nil:
		if flags&OCreate != 0 && flags&OExcl != 0 {
			return nil, res.Path, fmt.Errorf("%w: %s", vfs.ErrExist, res.Path)
		}
		if res.Node.Type == vfs.TypeDir && flags&(OWrite|OTrunc) != 0 {
			return nil, res.Path, fmt.Errorf("%w: %s", vfs.ErrIsDir, res.Path)
		}
		var want vfs.Mode
		if flags&ORead != 0 {
			want |= vfs.WantRead
		}
		if flags&(OWrite|OTrunc|OAppend) != 0 {
			want |= vfs.WantWrite
		}
		if want != 0 && !vfs.Allows(res.Node, cred.EUID, cred.EGID, want) {
			return nil, res.Path, fmt.Errorf("%w: open %s", ErrPerm, res.Path)
		}
		node := res.Node
		if flags&OTrunc != 0 && node.Type == vfs.TypeRegular {
			node = p.K.FS.Own(node)
			node.Data = nil
			node.Gen++
		}
		f := &File{node: node, Path: res.Path, flags: flags}
		if flags&OAppend != 0 {
			f.offset = len(node.Data)
		}
		return f, res.Path, nil
	case flags&OCreate != 0:
		if res.Parent == nil {
			return nil, res.Path, fmt.Errorf("%w: %s", vfs.ErrInvalid, path)
		}
		if !vfs.Allows(res.Parent, cred.EUID, cred.EGID, vfs.WantWrite|vfs.WantExec) {
			return nil, res.Path, fmt.Errorf("%w: create in parent of %s", ErrPerm, res.Path)
		}
		n, err := p.K.FS.Create(p.Cwd, path, mode&^p.Umask, cred.EUID, cred.EGID, flags&OExcl != 0)
		if err != nil {
			return nil, res.Path, err
		}
		return &File{node: n, Path: res.Path, flags: flags}, res.Path, nil
	default:
		return nil, res.Path, fmt.Errorf("%w: %s", vfs.ErrNotExist, res.Path)
	}
}

// Create is creat(2): open with OWrite|OCreate|OTrunc. The BSD lpr flaw in
// the paper's Section 3.4 lives at exactly this call.
func (p *Proc) Create(site, path string, mode vfs.Mode) (*File, error) {
	return p.Open(site, path, OWrite|OCreate|OTrunc, mode)
}

// Read reads up to n bytes from the file. The returned bytes pass through
// the bus as environment input, so indirect faults can perturb them.
func (p *Proc) Read(site string, f *File, n int) ([]byte, error) {
	path := ""
	if f != nil {
		path = f.Path
	}
	p.begin(interpose.Call{
		Site: site, Op: interpose.OpRead, Kind: interpose.KindFile, Path: path,
	})
	var (
		data []byte
		err  error
	)
	// The handle pins inode identity; View maps it to the fork's current
	// version so reads observe copy-on-write privatizations.
	var node *vfs.Inode
	if f != nil {
		node = p.K.FS.View(f.node)
	}
	switch {
	case f == nil || f.closed:
		err = ErrBadFD
	case f.flags&ORead == 0:
		err = fmt.Errorf("%w: not opened for reading", ErrBadFD)
	case node.Type != vfs.TypeRegular:
		err = fmt.Errorf("%w: %s", vfs.ErrIsDir, f.Path)
	default:
		end := f.offset + n
		if end > len(node.Data) {
			end = len(node.Data)
		}
		if f.offset < end {
			data = append([]byte(nil), node.Data[f.offset:end]...)
			f.offset = end
		}
	}
	r := p.end(interpose.Result{Data: data, Err: err}, path)
	return r.Data, r.Err
}

// ReadAll reads the entire remaining content of the file.
func (p *Proc) ReadAll(site string, f *File) ([]byte, error) {
	if f == nil || f.node == nil {
		return nil, ErrBadFD
	}
	return p.Read(site, f, len(p.K.FS.View(f.node).Data)-f.offset)
}

// ReadFile opens, fully reads, and closes the file at path in one
// interaction pair (open + read).
func (p *Proc) ReadFile(site, path string) ([]byte, error) {
	f, err := p.Open(site+":open", path, ORead, 0)
	if err != nil {
		return nil, err
	}
	defer p.Close(f)
	return p.ReadAll(site+":read", f)
}

// Write appends data to the file at the current offset.
func (p *Proc) Write(site string, f *File, data []byte) (int, error) {
	path := ""
	if f != nil {
		path = f.Path
	}
	c := p.begin(interpose.Call{
		Site: site, Op: interpose.OpWrite, Kind: interpose.KindFile,
		Path: path, Data: data,
	})
	var (
		n   int
		err error
	)
	switch {
	case f == nil || f.closed:
		err = ErrBadFD
	case f.flags&(OWrite|OAppend) == 0:
		err = fmt.Errorf("%w: not opened for writing", ErrBadFD)
	default:
		// Extend or overwrite from offset. Own privatizes a shared inode
		// (deep-copying Data) before the in-place copy below, so a write
		// through a pre-fork handle never touches the frozen base image.
		node := p.K.FS.Own(f.node)
		buf := node.Data
		need := f.offset + len(c.Data)
		if need > len(buf) {
			nb := make([]byte, need)
			copy(nb, buf)
			buf = nb
		}
		copy(buf[f.offset:], c.Data)
		node.Data = buf
		node.Gen++
		f.offset += len(c.Data)
		n = len(c.Data)
	}
	r := p.end(interpose.Result{N: n, Err: err}, path)
	return r.N, r.Err
}

// Close releases the handle. Closing twice returns ErrBadFD.
func (p *Proc) Close(f *File) error {
	if f == nil || f.closed {
		return ErrBadFD
	}
	f.closed = true
	return nil
}

// Stat resolves path (following symlinks) and reports object metadata.
func (p *Proc) Stat(site, path string) (Info, error) {
	return p.stat(site, path, true)
}

// Lstat is Stat without following a final symlink.
func (p *Proc) Lstat(site, path string) (Info, error) {
	return p.stat(site, path, false)
}

func (p *Proc) stat(site, path string, follow bool) (Info, error) {
	op := interpose.OpStat
	if !follow {
		op = interpose.OpLstat
	}
	c := p.begin(interpose.Call{Site: site, Op: op, Kind: interpose.KindFile, Path: path})
	var (
		info Info
		err  error
	)
	res, rerr := p.K.FS.Resolve(p.Cwd, c.Path, follow)
	switch {
	case rerr != nil:
		err = rerr
	case res.Node == nil:
		err = fmt.Errorf("%w: %s", vfs.ErrNotExist, res.Path)
	default:
		info = Info{
			Path: res.Path, Type: res.Node.Type, Mode: res.Node.Mode,
			UID: res.Node.UID, GID: res.Node.GID, Size: len(res.Node.Data),
			Symlink: res.Node.Type == vfs.TypeSymlink,
		}
	}
	r := p.end(interpose.Result{Err: err}, info.Path)
	return info, r.Err
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(site, path string, mode vfs.Mode) error {
	c := p.begin(interpose.Call{
		Site: site, Op: interpose.OpMkdir, Kind: interpose.KindDir,
		Path: path, Mode: uint16(mode),
	})
	err := p.parentWriteChecked(c.Path, func() error {
		_, err := p.K.FS.Mkdir(p.Cwd, c.Path, vfs.Mode(c.Mode)&^p.Umask, p.Cred.EUID, p.Cred.EGID)
		return err
	})
	r := p.end(interpose.Result{Err: err}, p.resolvedPath(c.Path))
	return r.Err
}

// resolvedPath returns the post-symlink identity of path — what the
// operation actually touched — falling back to lexical canonicalisation
// when resolution fails.
func (p *Proc) resolvedPath(path string) string {
	if res, err := p.K.FS.Resolve(p.Cwd, path, true); err == nil {
		return res.Path
	}
	return vfs.Canon(p.Cwd, path)
}

// Unlink removes a file (not following a final symlink).
func (p *Proc) Unlink(site, path string) error {
	c := p.begin(interpose.Call{Site: site, Op: interpose.OpUnlink, Kind: interpose.KindFile, Path: path})
	resolved := ""
	err := p.parentWriteChecked(c.Path, func() error {
		res, rerr := p.K.FS.Resolve(p.Cwd, c.Path, false)
		if rerr == nil {
			resolved = res.Path
		}
		return p.K.FS.Unlink(p.Cwd, c.Path)
	})
	r := p.end(interpose.Result{Err: err}, resolved)
	return r.Err
}

// parentWriteChecked runs op after verifying the caller can write the
// parent directory of path.
func (p *Proc) parentWriteChecked(path string, op func() error) error {
	res, err := p.K.FS.Resolve(p.Cwd, path, false)
	if err != nil {
		return err
	}
	if res.Parent != nil && !vfs.Allows(res.Parent, p.Cred.EUID, p.Cred.EGID, vfs.WantWrite|vfs.WantExec) {
		return fmt.Errorf("%w: directory of %s", ErrPerm, res.Path)
	}
	return op()
}
