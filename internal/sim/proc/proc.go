// Package proc models process identity for the simulated kernel: user
// accounts, real/effective credentials (the substrate for set-UID
// semantics), and the process environment table.
//
// The paper's case studies all hinge on privilege separation: lpr and
// turnin run set-UID root on behalf of an unprivileged invoker, and the
// security oracle judges every environment access against the *invoker's*
// real credentials. This package supplies those identities.
package proc

import (
	"fmt"
	"maps"
	"sort"
)

// Cred is a POSIX-style credential set. The real ids identify the invoking
// user; the effective ids govern access checks and change on set-UID exec;
// the saved uid (SUID) lets a set-UID program drop privilege temporarily
// and regain it, as seteuid(2) permits.
type Cred struct {
	UID, GID   int
	EUID, EGID int
	SUID       int
}

// NewCred returns credentials with effective and saved ids equal to real
// ids.
func NewCred(uid, gid int) Cred {
	return Cred{UID: uid, GID: gid, EUID: uid, EGID: gid, SUID: uid}
}

// String renders credentials as "uid=100 euid=0 gid=100 egid=0".
func (c Cred) String() string {
	return fmt.Sprintf("uid=%d euid=%d gid=%d egid=%d", c.UID, c.EUID, c.GID, c.EGID)
}

// User is an entry in the simulated account database.
type User struct {
	Name string
	UID  int
	GID  int
}

// Users is the account database for a simulated world.
type Users struct {
	byName map[string]User
	byUID  map[int]User
	// frozen marks a snapshot's database, which forks share; Add panics
	// on it, as writes to a frozen filesystem or registry do.
	frozen bool
	// shared marks a fork whose maps are still its base's; the first Add
	// copies them.
	shared bool
}

// NewUsers returns a database pre-populated with root (uid 0).
func NewUsers() *Users {
	u := &Users{byName: make(map[string]User), byUID: make(map[int]User)}
	u.Add(User{Name: "root", UID: 0, GID: 0})
	return u
}

// Add inserts or replaces an account.
func (u *Users) Add(user User) {
	if u.frozen {
		panic("proc: Add to frozen account database")
	}
	if u.shared {
		u.byName, u.byUID = maps.Clone(u.byName), maps.Clone(u.byUID)
		u.shared = false
	}
	u.byName[user.Name] = user
	u.byUID[user.UID] = user
}

// ByName looks up an account by name.
func (u *Users) ByName(name string) (User, bool) {
	user, ok := u.byName[name]
	return user, ok
}

// ByUID looks up an account by uid.
func (u *Users) ByUID(uid int) (User, bool) {
	user, ok := u.byUID[uid]
	return user, ok
}

// All returns every account sorted by uid.
func (u *Users) All() []User {
	out := make([]User, 0, len(u.byUID))
	for _, user := range u.byUID {
		out = append(out, user)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out
}

// Freeze marks the database immutable so it can back Fork views. Any
// later Add panics.
func (u *Users) Freeze() { u.frozen = true }

// Fork returns a mutable database that shares the (frozen) receiver's
// accounts until its first Add copies them. World snapshot forks use it:
// runs read accounts but almost never add one, so most forks copy nothing.
func (u *Users) Fork() *Users {
	if !u.frozen {
		panic("proc: Fork of unfrozen account database")
	}
	return &Users{byName: u.byName, byUID: u.byUID, shared: true}
}

// Env is a process environment table. Processes only read it, so one
// table can back any number of them; Clone makes an independent copy.
type Env map[string]string

// NewEnv returns an environment populated from pairs of key, value strings.
// It panics when given an odd number of arguments, as that is a programming
// error at world-construction time.
func NewEnv(pairs ...string) Env {
	if len(pairs)%2 != 0 {
		panic("proc.NewEnv: odd number of arguments")
	}
	e := make(Env, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		e[pairs[i]] = pairs[i+1]
	}
	return e
}

// Clone returns an independent copy of the environment.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}
