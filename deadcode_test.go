package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// TestNoDeadCode fails on any function, method or type of this module
// that nothing references, or that only its own package's tests
// reference. Code referenced only by its own tests belongs in that
// package's export_test.go, or nowhere.
//
// A use counts when it comes from the package's own non-test files,
// from another package or from another package's tests; cmd/,
// examples/ and the nested bench/ module are read as users too. A
// method also counts as used when its receiver type implements an
// interface that declares it, whether that interface is in this tree or
// in an imported standard-library package (String, Error, ServeHTTP,
// Next, …). Every package of the module is checked but bench/, whose
// packages are read as users only. That includes the simulated
// operating system under internal/sim: every program that runs on it is
// in this tree, so a syscall none of them makes is dead code like any
// other.
func TestNoDeadCode(t *testing.T) {
	dead, err := findDeadCode(os.DirFS("."), func(pkg string) bool {
		return (pkg == "repro" || strings.HasPrefix(pkg, "repro/")) &&
			!strings.HasPrefix(pkg, "repro/bench")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Error(d)
	}
}

// TestDeadCodeFixtures runs the check on a small tree held in memory: a
// module "fix" with a library, a second package whose test uses the
// library, and a nested module "fix/bench".
func TestDeadCodeFixtures(t *testing.T) {
	src := func(s string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(s)} }
	fsys := fstest.MapFS{
		"go.mod": src("module fix\n\ngo 1.24\n"),
		"lib/lib.go": src(`package lib

type Name string

func (n Name) String() string { return string(n) }

func Unused() {}

func OwnTestOnly() int { return helper() }

func helper() int { return 1 }

func orphan() {}

func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

func OtherTest() Name { return "x" }

func BenchOnly() {}
`),
		"lib/lib_test.go": src(`package lib

import "testing"

func TestOwn(t *testing.T) { _ = OwnTestOnly() }
`),
		"other/other.go":      src("package other\n\nimport _ \"fmt\"\n"),
		"other/other_test.go": src("package other_test\n\nimport (\n\t\"testing\"\n\n\t\"fix/lib\"\n)\n\nfunc TestOther(t *testing.T) { _ = lib.OtherTest() }\n"),
		"bench/go.mod":        src("module fix/bench\n\ngo 1.24\n"),
		"bench/bench.go":      src("package bench\n\nimport \"fix/lib\"\n\nfunc Run() { lib.BenchOnly() }\n"),
	}
	dead, err := findDeadCode(fsys, func(pkg string) bool { return pkg == "fix/lib" || pkg == "fix/other" })
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(dead, "\n")
	want := strings.Join([]string{
		"lib/lib.go:7: fix/lib.Unused: nothing references it",
		"lib/lib.go:9: fix/lib.OwnTestOnly: only its own package's tests reference it",
		"lib/lib.go:13: fix/lib.orphan: nothing references it",
		"lib/lib.go:15: fix/lib.recursive: nothing references it",
	}, "\n")
	if got != want {
		t.Errorf("dead code in the fixture:\n%s\nwant:\n%s", got, want)
	}
}

// deadFile is one parsed source file and what the check needs to know
// of it.
type deadFile struct {
	ast  *ast.File
	test bool
	pkg  *deadPkg
}

// deadPkg is one directory's package: its non-test and in-package test
// files are type-checked as one package, which every importer shares
// (an in-package test may not import anything that imports the
// package), and its external test files as a second one.
type deadPkg struct {
	path          string
	files, xtests []*deadFile
	types, xtypes *types.Package
	checking      bool
}

// findDeadCode loads every package under fsys, nested modules included,
// type-checks them from source (the standard library from its export
// data), and lists the functions, methods and types of the packages for
// which checked reports true that nothing references, or that only
// their own package's tests reference. Each entry reads
// "file:line: pkg.Name: why", in file order.
func findDeadCode(fsys fs.FS, checked func(pkg string) bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := loadDeadPkgs(fsys, fset)
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	files := map[*token.File]*deadFile{}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		return nil, err
	}
	var errs []string
	var check func(p *deadPkg) error
	imp := importerFunc(func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p == nil {
			return std.Import(path)
		}
		if err := check(p); err != nil {
			return nil, err
		}
		return p.types, nil
	})
	typeCheck := func(path string, fs []*deadFile) *types.Package {
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
		asts := make([]*ast.File, len(fs))
		for i, f := range fs {
			asts[i] = f.ast
			files[fset.File(f.ast.Pos())] = f
		}
		pkg, _ := conf.Check(path, fset, asts, info)
		return pkg
	}
	check = func(p *deadPkg) error {
		switch {
		case p.types != nil:
			return nil
		case p.checking:
			return fmt.Errorf("import cycle through %s", p.path)
		}
		p.checking = true
		p.types = typeCheck(p.path, p.files)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p := pkgs[path]
		if err := check(p); err != nil {
			return nil, err
		}
		if len(p.xtests) > 0 {
			p.xtypes = typeCheck(path+"_test", p.xtests)
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking the tree:\n%s", strings.Join(errs, "\n"))
	}

	// The candidates: every package-level function, method and type in
	// the non-test files of a checked package, with the extent of its
	// declaration (a use inside it does not count). A method's receiver
	// does not use its type either.
	type candidate struct {
		pkg      *deadPkg
		name     string
		pos, end token.Pos
		live     bool
		testUse  bool
	}
	cands := map[types.Object]*candidate{}
	recvs := map[*ast.Ident]bool{}
	for _, f := range files {
		if f.test || !checked(f.pkg.path) {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv == nil && (name == "main" || name == "init") {
					continue
				}
				if d.Recv != nil {
					recv := types.ExprString(d.Recv.List[0].Type)
					if strings.HasPrefix(recv, "*") {
						recv = "(" + recv + ")"
					}
					name = recv + "." + name
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
				cands[info.Defs[d.Name]] = &candidate{pkg: f.pkg, name: name, pos: d.Pos(), end: d.End()}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						cands[info.Defs[ts.Name]] = &candidate{pkg: f.pkg, name: ts.Name.Name, pos: ts.Pos(), end: ts.End()}
					}
				}
			}
		}
	}

	for id, obj := range info.Uses {
		c := cands[origin(obj)]
		if c == nil || (id.Pos() >= c.pos && id.Pos() < c.end) || recvs[id] {
			continue
		}
		if u := files[fset.File(id.Pos())]; u.test && u.pkg == c.pkg {
			c.testUse = true
		} else {
			c.live = true
		}
	}

	// A method that an interface declares is reached through the
	// interface: mark every method that satisfies one as live.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if pkgs[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		walk(p.xtypes)
	}
	for _, obj := range info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		if _, ok := tn.Type().(*types.Named); !ok {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			c := cands[origin(m)]
			if c == nil || c.live {
				continue
			}
			for _, it := range ifaces[m.Name()] {
				if types.Implements(ptr, it) {
					c.live = true
					break
				}
			}
		}
	}

	var dead []*candidate
	for _, c := range cands {
		if !c.live {
			dead = append(dead, c)
		}
	}
	// Files enter the file set in walk order, so positions sort by file,
	// then line.
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	out := make([]string, len(dead))
	for i, c := range dead {
		why := "nothing references it"
		if c.testUse {
			why = "only its own package's tests reference it"
		}
		pos := fset.Position(c.pos)
		out[i] = fmt.Sprintf("%s:%d: %s.%s: %s", pos.Filename, pos.Line, c.pkg.path, c.name, why)
	}
	return out, nil
}

// origin maps a method of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// stdImporter reads the export data of every package the tree imports
// from outside it, located with one `go list -export` call.
func stdImporter(fset *token.FileSet, pkgs map[string]*deadPkg) (types.Importer, error) {
	need := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range append(p.files, p.xtests...) {
			for _, spec := range f.ast.Imports {
				if path, _ := strconv.Unquote(spec.Path.Value); pkgs[path] == nil && path != "unsafe" {
					need[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range need {
		args = append(args, path)
	}
	out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	}), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadDeadPkgs parses every package under fsys whose files go/build
// would select on this platform. fsys's root holds a go.mod, and a
// directory holding another starts a nested module; each package takes
// its import path from its module's line. testdata and directories whose names start with "." or "_" are
// skipped, as the go command skips them.
func loadDeadPkgs(fsys fs.FS, fset *token.FileSet) (map[string]*deadPkg, error) {
	ctxt := build.Default
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return fsys.Open(name) }
	pkgs := map[string]*deadPkg{}
	modules := map[string]string{}
	err := fs.WalkDir(fsys, ".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return fs.SkipDir
		}
		importPath, err := moduleLine(fsys, path.Join(dir, "go.mod"))
		switch {
		case err != nil:
			return err
		case importPath == "" && dir == ".":
			return errors.New("no go.mod at the root of the tree")
		case importPath == "":
			importPath = modules[path.Dir(dir)] + "/" + d.Name()
		}
		modules[dir] = importPath
		entries, err := fs.ReadDir(fsys, dir)
		if err != nil {
			return err
		}
		p := &deadPkg{path: importPath}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			ok, err := ctxt.MatchFile(dir, name)
			if err != nil {
				return err
			} else if !ok {
				continue
			}
			file := path.Join(dir, name)
			src, err := fs.ReadFile(fsys, file)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			df := &deadFile{ast: f, test: strings.HasSuffix(name, "_test.go"), pkg: p}
			if df.test && strings.HasSuffix(f.Name.Name, "_test") {
				p.xtests = append(p.xtests, df)
			} else {
				p.files = append(p.files, df)
			}
		}
		if len(p.files)+len(p.xtests) > 0 {
			pkgs[importPath] = p
		}
		return nil
	})
	return pkgs, err
}

// moduleLine returns the module path a go.mod declares, or "" when
// there is no go.mod.
func moduleLine(fsys fs.FS, name string) (string, error) {
	b, err := fs.ReadFile(fsys, name)
	if errors.Is(err, fs.ErrNotExist) {
		return "", nil
	} else if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", name)
}
