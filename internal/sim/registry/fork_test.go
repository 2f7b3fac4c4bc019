package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// forkBase builds the frozen image the fork tests write through: keys of
// several depths in two hives, one unprotected, plus vendors filler keys
// under HKLM\Vendors that no test path crosses, so the cost of a write
// can be told apart from the size of the forest.
func forkBase(t interface{ Fatal(...any) }, vendors int) *Registry {
	r := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(path string, acl ACL) {
		_, err := r.CreateKey(path, acl)
		must(err)
	}
	create(`HKLM\Software\Fonts\Cleanup`, UnprotectedACL())
	must(r.SetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", `C:\Fonts\old.fon`, System))
	create(`HKLM\Software\Logon`, DefaultACL())
	must(r.SetString(`HKLM\Software\Logon`, "ProfileDir", `C:\Profiles`, System))
	must(r.SetDWord(`HKLM\Software\Logon`, "Retries", 3, System))
	create(`HKLM\System\CurrentControlSet\Services\Spooler`, DefaultACL())
	create(`HKCU\Environment`, UnprotectedACL())
	must(r.SetString(`HKCU\Environment`, "TEMP", `C:\Temp`, System))
	for i := 0; i < vendors; i++ {
		key := fmt.Sprintf(`HKLM\Vendors\V%04d`, i)
		create(key, DefaultACL())
		must(r.SetString(key, "Name", key, System))
	}
	r.Freeze()
	return r
}

// dump renders every key, ACL and value of r in Walk order: two
// registries with equal dumps are observationally identical.
func dump(r *Registry) string {
	var b strings.Builder
	r.Walk(func(path string, k *Key) {
		ps := make([]int, 0, len(k.ACL))
		for p := range k.ACL {
			ps = append(ps, int(p))
		}
		sort.Ints(ps)
		fmt.Fprintf(&b, "%s %q", path, k.Name)
		for _, p := range ps {
			fmt.Fprintf(&b, " %d=%d", p, k.ACL[Principal(p)])
		}
		b.WriteByte('\n')
		for _, n := range k.ValueNames() {
			v := k.values[n]
			fmt.Fprintf(&b, "  %q %d %q %d\n", n, v.Type, v.S, v.D)
		}
	})
	return b.String()
}

func mustOpen(t *testing.T, r *Registry, path string) *Key {
	t.Helper()
	k, err := r.Open(path, System)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestForkCopiesOnlyThePath: one SetString in a fork leaves the base and
// a sibling fork unchanged, copies the keys from the hive to the written
// key, and leaves every other key the same pointer as the base's.
func TestForkCopiesOnlyThePath(t *testing.T) {
	t.Parallel()
	base := forkBase(t, 20)
	before := dump(base)
	a, b := base.Fork(), base.Fork()
	const cleanup = `HKLM\Software\Fonts\Cleanup`
	if err := a.SetString(cleanup, "FontFile", `C:\evil`, Everyone); err != nil {
		t.Fatal(err)
	}
	if got := dump(base); got != before {
		t.Fatalf("fork write reached the base:\n%s", got)
	}
	if !base.Frozen() {
		t.Fatal("fork write unfroze the base")
	}
	if got := dump(b); got != before {
		t.Fatalf("fork write reached a sibling fork:\n%s", got)
	}
	if s, err := a.GetString(cleanup, "FontFile", Everyone); err != nil || s != `C:\evil` {
		t.Fatalf("fork reads back %q, %v", s, err)
	}
	for _, path := range []string{`HKLM`, `HKLM\Software`, `HKLM\Software\Fonts`, cleanup} {
		if mustOpen(t, a, path) == mustOpen(t, base, path) {
			t.Errorf("%s on the written path is still the base's key", path)
		}
	}
	for _, path := range []string{
		`HKCU`, `HKCU\Environment`, `HKU`, `HKCR`,
		`HKLM\Software\Logon`, `HKLM\System`, `HKLM\System\CurrentControlSet\Services\Spooler`,
		`HKLM\Vendors`, `HKLM\Vendors\V0007`,
	} {
		if mustOpen(t, a, path) != mustOpen(t, base, path) {
			t.Errorf("%s is off the written path but was copied", path)
		}
	}
	// The copies are the fork's own now: a second write copies nothing.
	k := mustOpen(t, a, cleanup)
	if err := a.SetString(cleanup, "Other", "v", Everyone); err != nil {
		t.Fatal(err)
	}
	if mustOpen(t, a, cleanup) != k {
		t.Error("a second write to an owned key copied it again")
	}
	if !mustOpen(t, a, cleanup).Unprotected() {
		t.Error("the copied key lost its ACL")
	}
}

// TestForkFirstWriteAllocsByDepth pins what a fork's first write costs:
// the same allocations in a forest of 10 filler keys as in one of 2,000,
// at most five for the fork, its hive map and the path splits, plus four
// for each key on the written path (the key and copies of its maps).
func TestForkFirstWriteAllocsByDepth(t *testing.T) {
	firstWrite := func(base *Registry, path string) float64 {
		return testing.AllocsPerRun(50, func() {
			f := base.Fork()
			if err := f.SetString(path, "FontFile", "x", Everyone); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := forkBase(t, 10), forkBase(t, 2000)
	for _, path := range []string{`HKCU\Environment`, `HKLM\Software\Fonts\Cleanup`} {
		s, l := firstWrite(small, path), firstWrite(large, path)
		if s != l {
			t.Errorf("first write to %s: %v allocations with 10 filler keys, %v with 2000", path, s, l)
		}
		depth := float64(strings.Count(path, `\`) + 1)
		if bound := 5 + 4*depth; l > bound {
			t.Errorf("first write to %s (depth %v) makes %v allocations, want at most %v", path, depth, l, bound)
		}
	}
}

// regPaths is the key pool the mutation scripts draw from: existing keys
// at every depth, fresh keys under existing and missing parents, a hive,
// a missing hive and a malformed path.
var regPaths = []string{
	`HKLM\Software\Fonts\Cleanup`, `HKLM\Software\Logon`, `HKLM\Software`,
	`HKLM\Software\New`, `HKLM\Software\Fonts\Cleanup\Sub`, `HKCU\Environment`,
	`HKCU`, `HKLM\Missing\Key`, `NOHIVE\x`, `HKLM\\bad`,
}

var regNames = []string{"FontFile", "ProfileDir", "Retries", "TEMP", "New"}

var regPrincipals = []Principal{System, Administrator, AuthenticatedUser, Everyone}

// applyRegScript interprets script as mutations of r and returns the
// outcome of every step, errors included.
func applyRegScript(r *Registry, script []byte) string {
	var out strings.Builder
	i := 0
	next := func() byte {
		if i >= len(script) {
			return 0
		}
		b := script[i]
		i++
		return b
	}
	path := func() string { return regPaths[int(next())%len(regPaths)] }
	name := func() string { return regNames[int(next())%len(regNames)] }
	who := func() Principal { return regPrincipals[int(next())%len(regPrincipals)] }
	acl := func() ACL {
		if next()%2 == 0 {
			return DefaultACL()
		}
		return UnprotectedACL()
	}
	for i < len(script) {
		var err error
		switch next() % 5 {
		case 0:
			err = r.SetString(path(), name(), string([]byte{next(), next()}), who())
		case 1:
			err = r.SetDWord(path(), name(), uint32(next()), who())
		case 2:
			err = r.DeleteValue(path(), name(), who())
		case 3:
			err = r.SetACL(path(), acl())
		case 4:
			_, err = r.CreateKey(path(), acl())
		}
		fmt.Fprintln(&out, err)
	}
	return out.String()
}

// FuzzRegistryFork: mutation scripts on forks of one frozen base, and on
// a fork of a frozen fork, must leave exactly the state and errors the
// same scripts leave on deep clones, and must never move the base or the
// frozen parent.
func FuzzRegistryFork(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 3}, []byte{2, 1, 1, 0})
	f.Add([]byte{4, 4, 1, 3, 5, 1, 0, 4, 0, 0, 0, 3}, []byte{3, 0, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{4, 3, 0, 0, 4, 1, 1, 3, 3}, []byte{2, 0, 1, 3, 1, 1, 4, 7})
	base := forkBase(f, 5)
	before := dump(base)
	f.Fuzz(func(t *testing.T, scriptA, scriptB []byte) {
		a, ca := base.Fork(), base.Clone()
		if got, want := applyRegScript(a, scriptA), applyRegScript(ca, scriptA); got != want {
			t.Fatalf("fork outcomes differ from a clone's:\n%s\nclone:\n%s", got, want)
		}
		if got, want := dump(a), dump(ca); got != want {
			t.Fatalf("fork state differs from a clone's:\n%s\nclone:\n%s", got, want)
		}
		b, cb := base.Fork(), base.Clone()
		applyRegScript(b, scriptB)
		applyRegScript(cb, scriptB)
		if got, want := dump(b), dump(cb); got != want {
			t.Fatalf("sibling fork state differs from a clone's:\n%s\nclone:\n%s", got, want)
		}
		// A fork of a frozen fork copies keys from both generations.
		a.Freeze()
		aState := dump(a)
		g, cg := a.Fork(), ca.Clone()
		applyRegScript(g, scriptB)
		applyRegScript(cg, scriptB)
		if got, want := dump(g), dump(cg); got != want {
			t.Fatalf("grandchild fork state differs from a clone's:\n%s\nclone:\n%s", got, want)
		}
		if got := dump(a); got != aState {
			t.Fatalf("grandchild script moved its frozen parent:\n%s", got)
		}
		if got := dump(base); got != before {
			t.Fatalf("fork scripts moved the base:\n%s", got)
		}
	})
}

// TestForkConcurrentWritesAndReads: forks writing on many goroutines
// while others read the shared base, the shape the suite dispatcher
// produces. Under -race it proves the path copy never writes a key the
// base or a sibling can reach.
func TestForkConcurrentWritesAndReads(t *testing.T) {
	t.Parallel()
	base := forkBase(t, 20)
	before := dump(base)
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 1 {
					if s, err := base.GetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", Everyone); err != nil || s != `C:\Fonts\old.fon` {
						t.Errorf("base read %q, %v", s, err)
						return
					}
					continue
				}
				f := base.Fork()
				mine := fmt.Sprintf("w%d-i%d", w, i)
				if err := f.SetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", mine, Everyone); err != nil {
					t.Error(err)
					return
				}
				if err := f.SetACL(`HKLM\Software\Logon`, UnprotectedACL()); err != nil {
					t.Error(err)
					return
				}
				if _, err := f.CreateKey(`HKCU\Environment\`+mine, DefaultACL()); err != nil {
					t.Error(err)
					return
				}
				if s, err := f.GetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", Everyone); err != nil || s != mine {
					t.Errorf("fork read %q, %v; want %q", s, err, mine)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := dump(base); got != before {
		t.Fatalf("concurrent forks moved the base:\n%s", got)
	}
}
