package proc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewCred(t *testing.T) {
	t.Parallel()
	c := NewCred(100, 50)
	if c.UID != 100 || c.EUID != 100 || c.SUID != 100 || c.GID != 50 || c.EGID != 50 {
		t.Errorf("NewCred = %+v", c)
	}
}

func TestSetUIDSemantics(t *testing.T) {
	t.Parallel()
	c := NewCred(100, 100)
	c.EUID = 0 // as in a root-owned set-UID program
	if got := c.String(); !strings.Contains(got, "uid=100") || !strings.Contains(got, "euid=0") {
		t.Errorf("String() = %q", got)
	}
}

func TestUsers(t *testing.T) {
	t.Parallel()
	u := NewUsers()
	if _, ok := u.ByName("root"); !ok {
		t.Fatal("root missing from fresh database")
	}
	u.Add(User{Name: "alice", UID: 100, GID: 100})
	u.Add(User{Name: "ta", UID: 200, GID: 200})
	if got, _ := u.ByUID(100); got.Name != "alice" {
		t.Errorf("ByUID(100) = %+v", got)
	}
	if _, ok := u.ByUID(999); ok {
		t.Error("ByUID(999) found an account")
	}
	all := u.All()
	if len(all) != 3 || all[0].UID != 0 || all[2].UID != 200 {
		t.Errorf("All() = %+v", all)
	}
	// Replacement.
	u.Add(User{Name: "alice", UID: 100, GID: 999})
	if got, _ := u.ByName("alice"); got.GID != 999 {
		t.Errorf("replaced alice = %+v", got)
	}
}

// TestUsersFork: a fork reads its frozen base's accounts, its first Add
// copies them, and neither the base nor a sibling fork sees the addition.
// Adding to the frozen base panics, and only a frozen database forks.
func TestUsersFork(t *testing.T) {
	t.Parallel()
	base := NewUsers()
	base.Add(User{Name: "alice", UID: 100, GID: 100})
	base.Freeze()
	a, b := base.Fork(), base.Fork()
	if u, ok := a.ByName("alice"); !ok || u.UID != 100 {
		t.Fatalf("fork lost a base account: %+v, %v", u, ok)
	}
	a.Add(User{Name: "eve", UID: 777, GID: 777})
	if _, ok := a.ByUID(777); !ok {
		t.Fatal("fork lost its own Add")
	}
	for name, u := range map[string]*Users{"base": base, "sibling": b} {
		if _, ok := u.ByName("eve"); ok {
			t.Errorf("a fork's Add reached the %s", name)
		}
		if got := len(u.All()); got != 2 {
			t.Errorf("%s has %d accounts, want 2", name, got)
		}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Add to the frozen base", func() { base.Add(User{Name: "mallory", UID: 666}) })
	mustPanic("Fork of an unfrozen database", func() { NewUsers().Fork() })
}

func TestEnv(t *testing.T) {
	t.Parallel()
	e := NewEnv("PATH", "/usr/bin:/bin", "HOME", "/home/alice")
	if e["PATH"] != "/usr/bin:/bin" {
		t.Errorf("PATH = %q", e["PATH"])
	}
	if len(e) != 2 || e["HOME"] != "/home/alice" {
		t.Errorf("NewEnv = %v", e)
	}
	c := e.Clone()
	c["PATH"] = "/tmp"
	if e["PATH"] == "/tmp" {
		t.Error("Clone shares storage")
	}
}

func TestNewEnvOddArgsPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("NewEnv with odd args did not panic")
		}
	}()
	NewEnv("KEY")
}

// Property: Clone round-trips every key.
func TestEnvCloneProperty(t *testing.T) {
	t.Parallel()
	f := func(m map[string]string) bool {
		e := Env(m).Clone()
		if len(e) != len(m) {
			return false
		}
		for k, v := range m {
			if e[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
