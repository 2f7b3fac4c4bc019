package vfs

import (
	"fmt"
	"strings"
	"testing"
)

// referenceResolve is the path walker Resolve used before the in-place
// walk: it splits the path into a component slice, keeps the directory
// chain and the names in growing slices, builds every resolved path with
// strings.Join and re-resolves a spliced string at each symlink. It is
// kept verbatim as the oracle FuzzResolve holds the walk to.
func referenceResolve(fs *FS, cwd, p string, followLast bool) (Resolved, error) {
	abs := p
	if !strings.HasPrefix(abs, "/") {
		if cwd == "" {
			cwd = "/"
		}
		abs = strings.TrimSuffix(cwd, "/") + "/" + abs
	}
	return referenceWalk(fs, abs, followLast, 0)
}

// referenceSplitRaw splits an absolute path into components, dropping
// empties and "." but preserving ".." for the walk to handle.
func referenceSplitRaw(abs string) []string {
	parts := strings.Split(abs, "/")
	out := parts[:0]
	for _, c := range parts {
		if c == "" || c == "." {
			continue
		}
		out = append(out, c)
	}
	return out
}

func referenceWalk(fs *FS, abs string, followLast bool, depth int) (Resolved, error) {
	if depth > maxSymlinkDepth {
		return Resolved{}, fmt.Errorf("%w: %s", ErrLoop, abs)
	}
	comps := referenceSplitRaw(abs)
	// stack holds the directory chain from the root; names the component
	// names entering each stack level past the root.
	stack := []*Inode{fs.view(fs.root)}
	var names []string
	pathOf := func() string {
		if len(names) == 0 {
			return "/"
		}
		return "/" + strings.Join(names, "/")
	}
	for i := 0; i < len(comps); i++ {
		comp := comps[i]
		cur := stack[len(stack)-1]
		last := i == len(comps)-1
		if comp == ".." {
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
				names = names[:len(names)-1]
			}
			continue
		}
		if len(comp) > MaxNameLen {
			return Resolved{}, fmt.Errorf("%w: %q", ErrNameTooLong, comp)
		}
		if cur.Type != TypeDir {
			return Resolved{}, fmt.Errorf("%w: %s", ErrNotDir, pathOf())
		}
		next := fs.view(cur.kids[comp])
		if next == nil {
			if last {
				return Resolved{
					Parent: cur,
					Name:   comp,
					Path:   joinResolved(pathOf(), comp),
				}, nil
			}
			return Resolved{}, fmt.Errorf("%w: %s", ErrNotExist, joinResolved(pathOf(), comp))
		}
		if next.Type == TypeSymlink && (!last || followLast) {
			// Re-resolve with the link target spliced in; the recursive
			// walk handles any ".." inside the target or the remainder.
			rest := strings.Join(comps[i+1:], "/")
			target := next.Target
			if !strings.HasPrefix(target, "/") {
				target = joinResolved(pathOf(), target)
			}
			if rest != "" {
				target = target + "/" + rest
			}
			return referenceWalk(fs, target, followLast, depth+1)
		}
		if last {
			return Resolved{
				Node:   next,
				Parent: cur,
				Name:   comp,
				Path:   joinResolved(pathOf(), comp),
			}, nil
		}
		stack = append(stack, next)
		names = append(names, comp)
	}
	// The path named an already-walked directory (root, trailing "..", or
	// trailing ".").
	res := Resolved{Node: stack[len(stack)-1], Path: pathOf()}
	if len(stack) > 1 {
		res.Parent = stack[len(stack)-2]
		res.Name = names[len(names)-1]
	}
	return res, nil
}

// deepDir is a directory chain deeper than the walk's 32-frame stack
// array, so fuzzed paths reach the heap fallback.
var deepDir = "/deep" + strings.Repeat("/d", 40)

// resolveFuzzWorld builds a tree with every shape the walk treats
// differently: nested directories, files used as intermediate components,
// absolute and relative symlinks to directories and files, links whose
// targets carry "..", ".", a trailing slash or nothing at all, dangling
// links, a two-link loop, a self-loop and a chain deeper than 32 levels.
func resolveFuzzWorld(t interface{ Fatal(...any) }) *FS {
	fs := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	link := func(target, p string) {
		_, err := fs.Symlink("/", target, p, 0, 0)
		must(err)
	}
	must(fs.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(fs.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o644, 0, 0))
	must(fs.MkdirAll("/", "/home/alice", 0o755, 100, 100))
	must(fs.WriteFile("/home/alice/notes", []byte("notes\n"), 0o644, 100, 100))
	must(fs.MkdirAll("/", "/a/b/c", 0o755, 0, 0))
	must(fs.WriteFile("/a/b/file", []byte("f"), 0o644, 0, 0))
	must(fs.WriteFile("/a/x", []byte("ax"), 0o644, 0, 0))
	must(fs.WriteFile("/x", []byte("x"), 0o644, 0, 0))
	must(fs.MkdirAll("/", "/tmp", 0o777, 0, 0))
	must(fs.MkdirAll("/", deepDir, 0o755, 0, 0))
	link("/a/b", "/abs")
	link("b/c", "/a/rel")
	link("../..", "/a/b/up")
	link(".", "/a/b/dot")
	link("/etc/passwd", "/tmp/pw")
	link("../home/alice/notes", "/tmp/relfile")
	link("/a/b/", "/tmp/trail")
	link("", "/tmp/empty")
	link("/nowhere/x", "/dangling")
	link("/loop2", "/loop1")
	link("/loop1", "/loop2")
	link("/self", "/self")
	link(deepDir, "/deeplink")
	link("../../../..", deepDir+"/back")
	return fs
}

// FuzzResolve holds the in-place walk to referenceResolve: for arbitrary
// cwd and path strings and both followLast values, Resolve must name the
// same node, parent, final component and resolved path, or fail with the
// same error text. Peek must return what Resolve from the root names.
func FuzzResolve(f *testing.F) {
	long := strings.Repeat("n", MaxNameLen+1)
	for _, seed := range [][2]string{
		{"/", "/"},
		{"/", ""},
		{"", "etc/passwd"},
		{"/a", "b/c"},
		{"/a/b/", "../x"},
		{"/", "//etc///passwd/"},
		{"/", "/etc/./passwd/."},
		{"/", "/a/b/c/../../x"},
		{"/", "/.."},
		{"/", "/abs/c"},
		{"/", "/abs/../x"},
		{"/", "/a/rel/../file"},
		{"/", "/a/b/up/etc/passwd"},
		{"/", "/a/b/dot/dot/dot/file"},
		{"/", "/tmp/pw/x"},
		{"/", "/etc/passwd/.."},
		{"/", "/tmp/relfile"},
		{"/", "/tmp/trail/c"},
		{"/", "/tmp/empty/etc"},
		{"/", "/dangling"},
		{"/", "/loop1/x"},
		{"/", "/self"},
		{"/", "/missing/x"},
		{"/", "/etc/" + long},
		{"/", deepDir + "/new"},
		{"/", deepDir + "/back/back/d"},
		{"/", "/deeplink/../../d/d/missing/y"},
		{"rel", "a//b"},
	} {
		f.Add(seed[0], seed[1])
	}
	fs := resolveFuzzWorld(f)
	fs.Freeze()
	f.Fuzz(func(t *testing.T, cwd, p string) {
		for _, follow := range []bool{false, true} {
			got, gerr := fs.Resolve(cwd, p, follow)
			want, werr := referenceResolve(fs, cwd, p, follow)
			if errText(gerr) != errText(werr) {
				t.Fatalf("Resolve(%q, %q, %v) err = %v, reference %v", cwd, p, follow, gerr, werr)
			}
			if got != want {
				t.Fatalf("Resolve(%q, %q, %v) = %+v, reference %+v", cwd, p, follow, got, want)
			}
			fromRoot, err := fs.Resolve("/", p, follow)
			var node *Inode
			if err == nil {
				node = fromRoot.Node
			}
			if peek := fs.Peek(p, follow); peek != node {
				t.Fatalf("Peek(%q, %v) = %p, Resolve from the root names %p (err %v)", p, follow, peek, node, err)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestPeekExpandsSymlinkBeforeDotDot: with /link -> /a/b, "/link/../x"
// names /a/x for Peek exactly as it does for Resolve. A lexical clean of
// the path before the walk would name /x instead.
func TestPeekExpandsSymlinkBeforeDotDot(t *testing.T) {
	t.Parallel()
	fs := resolveFuzzWorld(t)
	ax, err := fs.Lookup("/", "/a/x")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Resolve("/", "/abs/../x", true)
	if err != nil || r.Node != ax || r.Path != "/a/x" {
		t.Fatalf("Resolve(/abs/../x) = %+v, %v; want /a/x", r, err)
	}
	for _, follow := range []bool{false, true} {
		if got := fs.Peek("/abs/../x", follow); got != ax {
			t.Errorf("Peek(/abs/../x, %v) = %+v, want the /a/x inode %+v", follow, got, ax)
		}
	}
}

// TestResolveCanonicalAllocFree pins the walk's allocation count where
// the work needs no new memory: a canonical absolute path resolves with
// zero allocations whether its final component exists or not, Path is a
// prefix of the input, and a Peek miss allocates nothing either. Only a
// chain deeper than the 32-frame stack array spills, once.
func TestResolveCanonicalAllocFree(t *testing.T) {
	fs := resolveFuzzWorld(t)
	fs.Freeze()
	for _, tc := range []struct {
		path   string
		allocs float64
	}{
		{"/", 0},
		{"/etc/passwd", 0},
		{"/etc/missing", 0},
		{"/a/b/c", 0},
		{deepDir, 1},
		{deepDir + "/new", 1},
	} {
		var r Resolved
		var err error
		allocs := testing.AllocsPerRun(100, func() { r, err = fs.Resolve("/", tc.path, true) })
		if err != nil || r.Path != tc.path {
			t.Fatalf("Resolve(%q) = %+v, %v", tc.path, r, err)
		}
		if allocs != tc.allocs {
			t.Errorf("Resolve(%q) makes %v allocations, want %v", tc.path, allocs, tc.allocs)
		}
	}
	for _, p := range []string{"/etc/missing", "/missing/x", "/etc/passwd/x", "/etc//missing", "/a/./b/../missing"} {
		var n *Inode
		allocs := testing.AllocsPerRun(100, func() { n = fs.Peek(p, true) })
		if n != nil {
			t.Fatalf("Peek(%q) = %+v, want nil", p, n)
		}
		if allocs != 0 {
			t.Errorf("Peek(%q) miss makes %v allocations, want 0", p, allocs)
		}
	}
}
