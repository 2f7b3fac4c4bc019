// Package vfs implements an in-memory UNIX-like filesystem used as the
// environment substrate for environment-perturbation testing.
//
// The filesystem models exactly the attributes the EAI fault model (Du &
// Mathur, DSN 2000, Table 6) perturbs: existence, ownership, permission
// bits, symbolic links, file content, file names, and directories. It is
// pure mechanism: permission *checks* are performed by the kernel layer,
// which knows process credentials. The vfs layer only stores and resolves.
package vfs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
)

// NodeType discriminates the three kinds of filesystem object the model
// supports.
type NodeType int

// Node types. Enums start at 1 so the zero value is invalid and cannot be
// mistaken for a real node type.
const (
	TypeRegular NodeType = iota + 1
	TypeDir
	TypeSymlink
)

// String returns a human-readable node type name.
func (t NodeType) String() string {
	switch t {
	case TypeRegular:
		return "regular"
	case TypeDir:
		return "directory"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Mode holds UNIX permission bits plus the setuid/setgid/sticky bits.
type Mode uint16

// Permission bit masks.
const (
	ModeSetUID Mode = 0o4000
	ModeSetGID Mode = 0o2000
	ModeSticky Mode = 0o1000

	ModeUserRead   Mode = 0o400
	ModeUserWrite  Mode = 0o200
	ModeUserExec   Mode = 0o100
	ModeGroupRead  Mode = 0o040
	ModeGroupWrite Mode = 0o020
	ModeGroupExec  Mode = 0o010
	ModeOtherRead  Mode = 0o004
	ModeOtherWrite Mode = 0o002
	ModeOtherExec  Mode = 0o001

	// ModePermMask selects the twelve permission-relevant bits.
	ModePermMask Mode = 0o7777
)

// String renders the mode in conventional rwx notation (e.g. "rwsr-xr-x").
func (m Mode) String() string {
	var b [9]byte
	triples := []struct {
		r, w, x Mode
		special Mode
		sch     byte // letter when special bit and exec both set
		schNoX  byte // letter when special bit set but exec clear
	}{
		{ModeUserRead, ModeUserWrite, ModeUserExec, ModeSetUID, 's', 'S'},
		{ModeGroupRead, ModeGroupWrite, ModeGroupExec, ModeSetGID, 's', 'S'},
		{ModeOtherRead, ModeOtherWrite, ModeOtherExec, ModeSticky, 't', 'T'},
	}
	for i, t := range triples {
		o := i * 3
		b[o] = '-'
		if m&t.r != 0 {
			b[o] = 'r'
		}
		b[o+1] = '-'
		if m&t.w != 0 {
			b[o+1] = 'w'
		}
		switch {
		case m&t.x != 0 && m&t.special != 0:
			b[o+2] = t.sch
		case m&t.special != 0:
			b[o+2] = t.schNoX
		case m&t.x != 0:
			b[o+2] = 'x'
		default:
			b[o+2] = '-'
		}
	}
	return string(b[:])
}

// Static errors. These mirror the errno family a real kernel would return
// and are matched by callers with errors.Is.
var (
	ErrNotExist    = errors.New("vfs: no such file or directory")
	ErrExist       = errors.New("vfs: file exists")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrLoop        = errors.New("vfs: too many levels of symbolic links")
	ErrNotEmpty    = errors.New("vfs: directory not empty")
	ErrInvalid     = errors.New("vfs: invalid argument")
	ErrBusy        = errors.New("vfs: resource busy")
	ErrNameTooLong = errors.New("vfs: file name too long")
)

// MaxNameLen bounds a single path component, mirroring NAME_MAX.
const MaxNameLen = 255

// maxSymlinkDepth bounds symlink chain traversal, mirroring SYMLOOP_MAX.
const maxSymlinkDepth = 40

// Inode is a single filesystem object. Directories hold children by name;
// regular files hold content; symlinks hold a target path.
type Inode struct {
	ID     int64
	Type   NodeType
	Mode   Mode
	UID    int
	GID    int
	Data   []byte            // TypeRegular payload
	Target string            // TypeSymlink target path
	kids   map[string]*Inode // TypeDir children
	Nlink  int

	// owner is the FS that created or privatized this inode. A forked
	// filesystem may mutate an inode only when owner == fs; otherwise the
	// copy-on-write layer clones it first (see FS.own).
	owner *FS

	// Gen increments on every content mutation; the TOCTTOU baseline and
	// the content-invariance perturbation use it to detect change between
	// check and use.
	Gen int64
}

// IsSymlink reports whether the inode is a symbolic link.
func (n *Inode) IsSymlink() bool { return n.Type == TypeSymlink }

// Children returns the sorted child names of a directory inode. It returns
// nil for non-directories.
func (n *Inode) Children() []string {
	if n.Type != TypeDir {
		return nil
	}
	names := make([]string, 0, len(n.kids))
	for name := range n.kids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FS is an in-memory filesystem tree. The zero value is not usable; create
// instances with New.
//
// An FS supports copy-on-write forking: Freeze marks the tree immutable,
// and Fork produces a mutable child that structurally shares every inode
// with its parent until first mutation. Shared inodes are never relinked in
// place — the cow map redirects reads from a shared inode to the fork's
// private copy, which preserves hard-link identity and lets long-lived
// *Inode handles (open files, oracle snapshots) observe the fork's current
// state through View.
type FS struct {
	root   *Inode
	nextID int64

	// frozen marks the tree immutable. Mutating a frozen FS panics: a
	// frozen tree is the base image other filesystems fork from, so a
	// leaked mutation would silently corrupt every subsequent fork.
	frozen bool
	// cow maps a shared (parent-owned) inode to this filesystem's private
	// copy. Lookups chase chains, so a fork-of-a-fork resolves
	// grandparent inodes through the intermediate generation's copies.
	cow map[*Inode]*Inode
}

// New returns an empty filesystem whose root directory is owned by root
// (uid 0, gid 0) with mode 0755.
func New() *FS {
	fs := &FS{}
	fs.root = fs.newInode(TypeDir, 0o755, 0, 0)
	return fs
}

func (fs *FS) newInode(t NodeType, mode Mode, uid, gid int) *Inode {
	fs.nextID++
	n := &Inode{
		ID:    fs.nextID,
		Type:  t,
		Mode:  mode & ModePermMask,
		UID:   uid,
		GID:   gid,
		Nlink: 1,
		owner: fs,
	}
	if t == TypeDir {
		n.kids = make(map[string]*Inode)
	}
	return n
}

// Freeze marks the filesystem immutable so it can serve as the base image
// for Fork. Any subsequent mutation attempt panics — the tripwire that
// keeps a leaked shared mutation from corrupting every fork's run.
func (fs *FS) Freeze() { fs.frozen = true }

// Fork returns a mutable filesystem that structurally shares every inode
// with the (frozen) receiver. Construction is O(size of the receiver's cow
// map) — O(1) for a freshly built world — and the first mutation of any
// inode clones just that inode. Inode IDs allocated by the fork continue
// from the parent's counter, so forked runs produce bit-identical traces
// to fresh builds.
func (fs *FS) Fork() *FS {
	if !fs.frozen {
		panic("vfs: Fork of unfrozen filesystem")
	}
	return &FS{root: fs.root, nextID: fs.nextID, cow: maps.Clone(fs.cow)}
}

// view chases n through the copy-on-write map to this filesystem's current
// version of the inode. It is the read barrier every traversal uses; stale
// *Inode handles taken before a privatization resolve to the private copy.
func (fs *FS) view(n *Inode) *Inode {
	if n == nil || fs.cow == nil {
		return n
	}
	for {
		c, ok := fs.cow[n]
		if !ok {
			return n
		}
		n = c
	}
}

// View is the exported read barrier for long-lived inode handles (open
// files, oracle snapshots) held outside the vfs package.
func (fs *FS) View(n *Inode) *Inode { return fs.view(n) }

// own returns a version of n this filesystem may mutate, cloning a shared
// inode on first write. The clone deep-copies Data — kernel Write mutates
// content in place through the backing array — and shallow-copies the kids
// map; shared children are cloned lazily when they are themselves mutated.
func (fs *FS) own(n *Inode) *Inode {
	if fs.frozen {
		panic("vfs: mutation of frozen filesystem")
	}
	n = fs.view(n)
	if n.owner == fs {
		return n
	}
	c := &Inode{
		ID:     n.ID,
		Type:   n.Type,
		Mode:   n.Mode,
		UID:    n.UID,
		GID:    n.GID,
		Target: n.Target,
		Nlink:  n.Nlink,
		Gen:    n.Gen,
		owner:  fs,
	}
	if n.Data != nil {
		c.Data = append([]byte(nil), n.Data...)
	}
	if n.kids != nil {
		c.kids = maps.Clone(n.kids)
	}
	if fs.cow == nil {
		fs.cow = make(map[*Inode]*Inode)
	}
	fs.cow[n] = c
	return c
}

// Own is the exported write barrier: it returns the filesystem's mutable
// version of n, privatizing a shared inode first. Callers that mutate an
// inode obtained from a Resolve/Lookup (e.g. direct-fault perturbations)
// must route through Own.
func (fs *FS) Own(n *Inode) *Inode { return fs.own(n) }

// Canon returns path p made absolute against cwd and lexically cleaned.
// It performs no symlink resolution.
func Canon(cwd, p string) string {
	if p == "" {
		return path.Clean(cwd)
	}
	if !strings.HasPrefix(p, "/") {
		if cwd == "" {
			cwd = "/"
		}
		p = cwd + "/" + p
	}
	return path.Clean(p)
}

// SplitPath splits a cleaned absolute path into components, omitting the
// leading slash. The root path yields an empty slice.
func SplitPath(p string) []string {
	p = path.Clean(p)
	if p == "/" || p == "" || p == "." {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// Resolved is the result of a path walk.
type Resolved struct {
	// Node is the inode the path names, or nil when the final component
	// does not exist.
	Node *Inode
	// Parent is the directory containing the final component. It is always
	// non-nil on success and when only the final component is missing.
	Parent *Inode
	// Name is the final path component ("" for the root).
	Name string
	// Path is the fully resolved absolute path with all intermediate (and,
	// if followed, final) symlinks expanded. This is the identity the
	// security oracle uses: it names the object actually affected.
	Path string
}

// Resolve walks absolute-or-relative path p from cwd. Intermediate symlinks
// are always followed; the final component is followed only when followLast
// is true. ".." is resolved during the walk, after symlink expansion — as a
// real kernel does — so "/link/../x" with /link -> /etc names /x, not a
// sibling of the link. A missing final component yields Resolved with Node
// nil and no error, so callers can implement create semantics; missing
// intermediate components yield ErrNotExist.
//
// An absolute p that is already canonical (one leading slash, single
// separators, no "." or "..") and meets no symlink resolves without
// allocating: Resolved.Path is then a prefix of p.
func (fs *FS) Resolve(cwd, p string, followLast bool) (Resolved, error) {
	abs := p
	if !strings.HasPrefix(abs, "/") {
		if cwd == "" {
			cwd = "/"
		}
		abs = strings.TrimSuffix(cwd, "/") + "/" + abs
	}
	r, fail := fs.walk(abs, followLast, true)
	if fail.err != nil {
		return Resolved{}, fail.error()
	}
	return r, nil
}

// walkFail says why a walk failed. The walk itself formats nothing:
// Resolve turns it into an error, and Peek, which needs only the inode,
// drops it.
type walkFail struct {
	err    error  // ErrLoop, ErrNameTooLong, ErrNotDir or ErrNotExist; nil on success
	detail string // the path or component the error names
}

func (f walkFail) error() error {
	if f.err == ErrNameTooLong {
		return fmt.Errorf("%w: %q", f.err, f.detail)
	}
	return fmt.Errorf("%w: %s", f.err, f.detail)
}

// frame is one directory the walk has entered below the root, with the
// component name that entered it.
type frame struct {
	dir  *Inode
	name string
}

// walk is the one path walker. It reads the components of abs in place,
// keeps the directory chain in a stack array (the heap only past 32
// levels), and restarts on the spliced path at each followed symlink.
// With describe false it builds no path strings for the result or the
// failure, so a walk that meets no symlink and stays within 32 levels
// never allocates.
func (fs *FS) walk(abs string, followLast, describe bool) (Resolved, walkFail) {
	var buf [32]frame
restart:
	for depth := 0; ; depth++ {
		if depth > maxSymlinkDepth {
			return Resolved{}, walkFail{ErrLoop, abs}
		}
		root := fs.view(fs.root)
		frames := buf[:0]
		// canonEnd is the end in abs of the last entered component while
		// every component so far sat behind exactly one slash and none
		// was "." or ".."; it is -1 once that fails. While it holds, the
		// resolved path of the chain is abs[:canonEnd].
		canonEnd := 0
		start, end := nextComp(abs, 0)
		for start < len(abs) {
			comp := abs[start:end]
			nextStart, nextEnd := nextComp(abs, end)
			last := nextStart == len(abs)
			if canonEnd >= 0 && (start != canonEnd+1 || abs[canonEnd] != '/') {
				canonEnd = -1
			}
			if comp == ".." {
				canonEnd = -1
				if len(frames) > 0 {
					frames = frames[:len(frames)-1]
				}
				start, end = nextStart, nextEnd
				continue
			}
			if len(comp) > MaxNameLen {
				return Resolved{}, walkFail{ErrNameTooLong, comp}
			}
			cur := root
			if len(frames) > 0 {
				cur = frames[len(frames)-1].dir
			}
			if cur.Type != TypeDir {
				fail := walkFail{err: ErrNotDir}
				if describe {
					fail.detail = dirPath(abs, frames, canonEnd)
				}
				return Resolved{}, fail
			}
			next := fs.view(cur.kids[comp])
			if next == nil {
				if !last {
					fail := walkFail{err: ErrNotExist}
					if describe {
						fail.detail = childPath(abs, frames, canonEnd, comp, end)
					}
					return Resolved{}, fail
				}
				r := Resolved{Parent: cur, Name: comp}
				if describe {
					r.Path = childPath(abs, frames, canonEnd, comp, end)
				}
				return r, walkFail{}
			}
			if next.Type == TypeSymlink && (!last || followLast) {
				// Restart on the link target with the rest of the path
				// spliced on; the new walk handles any ".." in either.
				target := next.Target
				if !strings.HasPrefix(target, "/") {
					target = joinResolved(dirPath(abs, frames, canonEnd), target)
				}
				abs = spliceRest(target, abs[end:])
				continue restart
			}
			if last {
				r := Resolved{Node: next, Parent: cur, Name: comp}
				if describe {
					r.Path = childPath(abs, frames, canonEnd, comp, end)
				}
				return r, walkFail{}
			}
			frames = append(frames, frame{dir: next, name: comp})
			if canonEnd >= 0 {
				canonEnd = end
			}
			start, end = nextStart, nextEnd
		}
		// The path named an already-walked directory (root, trailing "..",
		// or trailing ".").
		r := Resolved{Node: root}
		if n := len(frames); n > 0 {
			r.Node, r.Name = frames[n-1].dir, frames[n-1].name
			r.Parent = root
			if n > 1 {
				r.Parent = frames[n-2].dir
			}
		}
		if describe {
			r.Path = dirPath(abs, frames, canonEnd)
		}
		return r, walkFail{}
	}
}

// nextComp returns the bounds of the first component of s at or after i,
// skipping empty and "." components, or (len(s), len(s)) when none is left.
func nextComp(s string, i int) (start, end int) {
	for i < len(s) {
		for i < len(s) && s[i] == '/' {
			i++
		}
		start = i
		for i < len(s) && s[i] != '/' {
			i++
		}
		if c := s[start:i]; c != "" && c != "." {
			return start, i
		}
	}
	return len(s), len(s)
}

// dirPath is the resolved path of the walked directory chain: a prefix of
// abs while the walk has stayed canonical, otherwise built from the names.
func dirPath(abs string, frames []frame, canonEnd int) string {
	if len(frames) == 0 {
		return "/"
	}
	if canonEnd >= 0 {
		return abs[:canonEnd]
	}
	var b strings.Builder
	for _, f := range frames {
		b.WriteByte('/')
		b.WriteString(f.name)
	}
	return b.String()
}

// childPath is the resolved path of comp, the component of abs ending at
// end, entered from the walked directory chain.
func childPath(abs string, frames []frame, canonEnd int, comp string, end int) string {
	if canonEnd >= 0 {
		return abs[:end]
	}
	return joinResolved(dirPath(abs, frames, canonEnd), comp)
}

// spliceRest appends to a symlink's target the components of rest, the
// path after the link, dropping empty and "." components.
func spliceRest(target, rest string) string {
	start, end := nextComp(rest, 0)
	if start == len(rest) {
		return target
	}
	var b strings.Builder
	b.Grow(len(target) + 1 + len(rest))
	b.WriteString(target)
	for start < len(rest) {
		b.WriteByte('/')
		b.WriteString(rest[start:end])
		start, end = nextComp(rest, end)
	}
	return b.String()
}

func joinResolved(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Lookup resolves p (following the final symlink) and returns its inode.
func (fs *FS) Lookup(cwd, p string) (*Inode, error) {
	r, err := fs.Resolve(cwd, p, true)
	if err != nil {
		return nil, err
	}
	if r.Node == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, r.Path)
	}
	return r.Node, nil
}

// LookupNoFollow resolves p without following a final symlink.
func (fs *FS) LookupNoFollow(cwd, p string) (*Inode, error) {
	r, err := fs.Resolve(cwd, p, false)
	if err != nil {
		return nil, err
	}
	if r.Node == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, r.Path)
	}
	return r.Node, nil
}

// Create makes a regular file at p owned by uid/gid. If the path already
// names a node and excl is true, ErrExist is returned; when excl is false
// an existing regular file (or final symlink target) is truncated and
// returned — faithfully reproducing the creat(2) semantics whose misuse the
// lpr case study (paper Section 3.4) exploits.
func (fs *FS) Create(cwd, p string, mode Mode, uid, gid int, excl bool) (*Inode, error) {
	r, err := fs.Resolve(cwd, p, true)
	if err != nil {
		return nil, err
	}
	if r.Node != nil {
		if excl {
			return nil, fmt.Errorf("%w: %s", ErrExist, r.Path)
		}
		if r.Node.Type == TypeDir {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, r.Path)
		}
		node := fs.own(r.Node)
		node.Data = nil
		node.Gen++
		return node, nil
	}
	if r.Parent == nil {
		return nil, fmt.Errorf("%w: cannot create root", ErrInvalid)
	}
	parent := fs.own(r.Parent)
	n := fs.newInode(TypeRegular, mode, uid, gid)
	parent.kids[r.Name] = n
	parent.Gen++
	return n, nil
}

// Mkdir creates a directory at p.
func (fs *FS) Mkdir(cwd, p string, mode Mode, uid, gid int) (*Inode, error) {
	r, err := fs.Resolve(cwd, p, true)
	if err != nil {
		return nil, err
	}
	if r.Node != nil {
		return nil, fmt.Errorf("%w: %s", ErrExist, r.Path)
	}
	if r.Parent == nil {
		return nil, fmt.Errorf("%w: cannot create root", ErrInvalid)
	}
	parent := fs.own(r.Parent)
	n := fs.newInode(TypeDir, mode, uid, gid)
	parent.kids[r.Name] = n
	parent.Gen++
	return n, nil
}

// MkdirAll creates directory p and any missing parents, each with the given
// mode and ownership. Existing directories are left untouched.
func (fs *FS) MkdirAll(cwd, p string, mode Mode, uid, gid int) error {
	abs := Canon(cwd, p)
	comps := SplitPath(abs)
	cur := "/"
	for _, comp := range comps {
		cur = joinResolved(cur, comp)
		r, err := fs.Resolve("/", cur, true)
		if err != nil {
			return err
		}
		if r.Node != nil {
			if r.Node.Type != TypeDir {
				return fmt.Errorf("%w: %s", ErrNotDir, cur)
			}
			continue
		}
		if _, err := fs.Mkdir("/", cur, mode, uid, gid); err != nil {
			return err
		}
	}
	return nil
}

// Symlink creates a symbolic link at p pointing at target. The link itself
// is created with mode 0777 as on most UNIX systems.
func (fs *FS) Symlink(cwd, target, p string, uid, gid int) (*Inode, error) {
	r, err := fs.Resolve(cwd, p, false)
	if err != nil {
		return nil, err
	}
	if r.Node != nil {
		return nil, fmt.Errorf("%w: %s", ErrExist, r.Path)
	}
	if r.Parent == nil {
		return nil, fmt.Errorf("%w: cannot create root", ErrInvalid)
	}
	parent := fs.own(r.Parent)
	n := fs.newInode(TypeSymlink, 0o777, uid, gid)
	n.Target = target
	parent.kids[r.Name] = n
	parent.Gen++
	return n, nil
}

// Unlink removes the directory entry at p. It does not follow a final
// symlink (removing the link, not its target). Directories are rejected;
// RemoveAll removes them.
func (fs *FS) Unlink(cwd, p string) error {
	r, err := fs.Resolve(cwd, p, false)
	if err != nil {
		return err
	}
	if r.Node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, r.Path)
	}
	if r.Node.Type == TypeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, r.Path)
	}
	parent := fs.own(r.Parent)
	delete(parent.kids, r.Name)
	parent.Gen++
	fs.own(r.Node).Nlink--
	return nil
}

// Rename moves the entry at oldp to newp, replacing a non-directory target.
// Final symlinks are not followed on either side, as with rename(2).
func (fs *FS) Rename(cwd, oldp, newp string) error {
	ro, err := fs.Resolve(cwd, oldp, false)
	if err != nil {
		return err
	}
	if ro.Node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, ro.Path)
	}
	rn, err := fs.Resolve(cwd, newp, false)
	if err != nil {
		return err
	}
	if rn.Parent == nil {
		return fmt.Errorf("%w: cannot rename to root", ErrInvalid)
	}
	if rn.Node != nil {
		if rn.Node == ro.Node {
			return nil
		}
		if rn.Node.Type == TypeDir {
			if ro.Node.Type != TypeDir {
				return fmt.Errorf("%w: %s", ErrIsDir, rn.Path)
			}
			if len(rn.Node.kids) > 0 {
				return fmt.Errorf("%w: %s", ErrNotEmpty, rn.Path)
			}
		}
	}
	oldParent := fs.own(ro.Parent)
	delete(oldParent.kids, ro.Name)
	oldParent.Gen++
	// The two parents may be the same directory; own() is idempotent, and
	// re-resolving through it keeps the second mutation on the same copy.
	newParent := fs.own(rn.Parent)
	newParent.kids[rn.Name] = ro.Node
	newParent.Gen++
	return nil
}

// RemoveAll removes the node at p and, for directories, everything under
// it. Missing paths are not an error, matching os.RemoveAll. Final symlinks
// are not followed. World-construction/perturbation helper: no permission
// checks.
func (fs *FS) RemoveAll(p string) error {
	r, err := fs.Resolve("/", p, false)
	if err != nil {
		return err
	}
	if r.Node == nil {
		return nil
	}
	if r.Parent == nil {
		return fmt.Errorf("%w: cannot remove root", ErrBusy)
	}
	parent := fs.own(r.Parent)
	delete(parent.kids, r.Name)
	parent.Gen++
	return nil
}

// WriteFile replaces the content of the regular file at p, creating it with
// the given mode/ownership if absent. It is a world-construction helper,
// not a syscall: permission checks are deliberately absent.
func (fs *FS) WriteFile(p string, data []byte, mode Mode, uid, gid int) error {
	r, err := fs.Resolve("/", p, true)
	if err != nil {
		return err
	}
	if r.Node == nil {
		parent := fs.own(r.Parent)
		n := fs.newInode(TypeRegular, mode, uid, gid)
		n.Data = append([]byte(nil), data...)
		parent.kids[r.Name] = n
		parent.Gen++
		return nil
	}
	if r.Node.Type != TypeRegular {
		return fmt.Errorf("%w: %s", ErrInvalid, r.Path)
	}
	node := fs.own(r.Node)
	node.Data = append([]byte(nil), data...)
	node.Gen++
	return nil
}

// ReadFile returns a copy of the content of the regular file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	n, err := fs.Lookup("/", p)
	if err != nil {
		return nil, err
	}
	if n.Type != TypeRegular {
		return nil, fmt.Errorf("%w: %s", ErrInvalid, p)
	}
	return append([]byte(nil), n.Data...), nil
}

// Exists reports whether p resolves to an existing node (following final
// symlinks).
func (fs *FS) Exists(p string) bool {
	_, err := fs.Lookup("/", p)
	return err == nil
}

// Walk visits every inode reachable from the root in depth-first order,
// calling fn with each absolute resolved path and inode. Symlinks are
// visited but not followed.
func (fs *FS) Walk(fn func(p string, n *Inode)) {
	var rec func(p string, n *Inode)
	rec = func(p string, n *Inode) {
		fn(p, n)
		if n.Type != TypeDir {
			return
		}
		for _, name := range n.Children() {
			rec(joinResolved(p, name), fs.view(n.kids[name]))
		}
	}
	rec("/", fs.view(fs.root))
}

// Clone returns a deep copy of the filesystem. Hard-link sharing within the
// tree is preserved: inodes reachable through multiple directory entries
// are cloned once. Cloning a fork flattens the copy-on-write layer — the
// result is standalone and owns every inode.
func (fs *FS) Clone() *FS {
	out := &FS{nextID: fs.nextID}
	seen := make(map[*Inode]*Inode)
	var rec func(n *Inode) *Inode
	rec = func(n *Inode) *Inode {
		n = fs.view(n)
		if c, ok := seen[n]; ok {
			return c
		}
		c := &Inode{
			ID:     n.ID,
			Type:   n.Type,
			Mode:   n.Mode,
			UID:    n.UID,
			GID:    n.GID,
			Target: n.Target,
			Nlink:  n.Nlink,
			Gen:    n.Gen,
			owner:  out,
		}
		seen[n] = c
		if n.Data != nil {
			c.Data = append([]byte(nil), n.Data...)
		}
		if n.kids != nil {
			c.kids = make(map[string]*Inode, len(n.kids))
			for name, kid := range n.kids {
				c.kids[name] = rec(kid)
			}
		}
		return c
	}
	out.root = rec(fs.root)
	return out
}

// Digest returns a hex SHA-256 over the full reachable tree — every path,
// type, mode, ownership, generation, link count, target, and content byte.
// Two filesystems with equal digests are observationally identical; the
// fork-isolation property tests compare digests before and after sibling
// mutations.
func (fs *FS) Digest() string {
	h := sha256.New()
	var num [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	fs.Walk(func(p string, n *Inode) {
		h.Write([]byte(p))
		h.Write([]byte{0})
		writeInt(int64(n.Type))
		writeInt(int64(n.Mode))
		writeInt(int64(n.UID))
		writeInt(int64(n.GID))
		writeInt(int64(n.Nlink))
		writeInt(n.Gen)
		writeInt(n.ID)
		h.Write([]byte(n.Target))
		h.Write([]byte{0})
		writeInt(int64(len(n.Data)))
		h.Write(n.Data)
	})
	sum := h.Sum(nil)
	return hex.EncodeToString(sum)
}

// Peek resolves path p from the root — following a final symlink only
// when follow is true — and returns its inode, or nil when the path does
// not resolve. It is Resolve("/", p, follow).Node through the same walk,
// minus the error values and resolved-path strings: a lookup that meets
// no symlink makes no allocation, hit or miss. The security oracle uses it
// for its snapshot lookups.
func (fs *FS) Peek(p string, follow bool) *Inode {
	r, fail := fs.walk(p, follow, false)
	if fail.err != nil {
		return nil
	}
	return r.Node
}
