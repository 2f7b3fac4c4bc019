package proc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewCred(t *testing.T) {
	t.Parallel()
	c := NewCred(100, 50)
	if c.UID != 100 || c.EUID != 100 || c.GID != 50 || c.EGID != 50 {
		t.Errorf("NewCred = %+v", c)
	}
	if c.Privileged() {
		t.Error("uid 100 reported privileged")
	}
	if c.Elevated() {
		t.Error("fresh cred reported elevated")
	}
}

func TestSetUIDSemantics(t *testing.T) {
	t.Parallel()
	c := NewCred(100, 100)
	c.EUID = 0 // as after exec of a root-owned set-UID binary
	if !c.Privileged() {
		t.Error("euid 0 not privileged")
	}
	if !c.Elevated() {
		t.Error("euid != uid not elevated")
	}
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
	if got := u.NameOf(200); got != "ta" {
		t.Errorf("NameOf(200) = %q", got)
	}
	if got := u.NameOf(999); got != "uid:999" {
		t.Errorf("NameOf(999) = %q", got)
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
	keys := e.Keys()
	if len(keys) != 2 || keys[0] != "HOME" || keys[1] != "PATH" {
		t.Errorf("Keys = %v", keys)
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

// Property: Elevated is exactly EUID != UID.
func TestElevatedProperty(t *testing.T) {
	t.Parallel()
	f := func(uid, euid uint8) bool {
		c := Cred{UID: int(uid), EUID: int(euid)}
		return c.Elevated() == (uid != euid)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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
