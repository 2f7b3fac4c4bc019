// Package registry models a Windows-NT-style configuration registry:
// hierarchical keys with typed values and per-key access-control lists.
//
// Section 4.2 of the paper tests Windows NT 4.0 (SP3) modules that consume
// *unprotected* registry keys — keys every user may write — and shows that
// privileged consumers trusting those keys can be driven to delete
// arbitrary files or load profiles from attacker directories. This package
// reproduces the substrate: keys, ACLs, and the notion of an unprotected
// key, so the same perturbations can be applied.
package registry

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Static errors.
var (
	ErrNoKey   = errors.New("registry: key not found")
	ErrNoValue = errors.New("registry: value not found")
	ErrAccess  = errors.New("registry: access denied")
	ErrBadPath = errors.New("registry: malformed key path")
	ErrExists  = errors.New("registry: key exists")
)

// Principal classifies the subject performing a registry operation.
type Principal int

// Principals, most privileged first.
const (
	System Principal = iota + 1
	Administrator
	AuthenticatedUser
	Everyone
)

// String returns the principal name.
func (p Principal) String() string {
	switch p {
	case System:
		return "SYSTEM"
	case Administrator:
		return "Administrator"
	case AuthenticatedUser:
		return "AuthenticatedUser"
	case Everyone:
		return "Everyone"
	default:
		return fmt.Sprintf("Principal(%d)", int(p))
	}
}

// Rights is a bitmask of registry permissions.
type Rights int

// Permission bits.
const (
	RightRead Rights = 1 << iota
	RightWrite
	RightDelete
)

// ACL maps principals to rights. A subject holds the union of the rights
// granted to every principal class it belongs to (SYSTEM ⊇ Administrator ⊇
// AuthenticatedUser ⊇ Everyone).
type ACL map[Principal]Rights

// Clone returns an independent copy.
func (a ACL) Clone() ACL {
	c := make(ACL, len(a))
	for p, r := range a {
		c[p] = r
	}
	return c
}

// Grants reports whether the subject principal holds all wanted rights,
// accumulating rights across the classes the subject belongs to.
func (a ACL) Grants(subject Principal, want Rights) bool {
	var held Rights
	for p, r := range a {
		if subject <= p { // numerically smaller principals are supersets
			held |= r
		}
	}
	return held&want == want
}

// DefaultACL is the protected-key default: SYSTEM and Administrator full
// control, everyone else read-only.
func DefaultACL() ACL {
	return ACL{
		System:        RightRead | RightWrite | RightDelete,
		Administrator: RightRead | RightWrite | RightDelete,
		Everyone:      RightRead,
	}
}

// UnprotectedACL is the misconfiguration Section 4.2 studies: Everyone may
// write.
func UnprotectedACL() ACL {
	return ACL{
		System:        RightRead | RightWrite | RightDelete,
		Administrator: RightRead | RightWrite | RightDelete,
		Everyone:      RightRead | RightWrite,
	}
}

// ValueType discriminates registry value payloads.
type ValueType int

// Value types.
const (
	TypeString ValueType = iota + 1
	TypeDWord
	TypeExpandString
)

// Value is one named datum under a key.
type Value struct {
	Type ValueType
	S    string
	D    uint32
}

// Key is a registry key: values plus subkeys plus an ACL.
type Key struct {
	Name    string
	ACL     ACL
	values  map[string]Value
	subkeys map[string]*Key
	// owner is the registry that may mutate this key. A fork reaches
	// keys it shares with its frozen base and copies one before its
	// first write (see Registry.writable).
	owner *Registry
}

func newKey(name string, acl ACL, owner *Registry) *Key {
	return &Key{
		Name:    name,
		ACL:     acl,
		values:  make(map[string]Value),
		subkeys: make(map[string]*Key),
		owner:   owner,
	}
}

// copyFor returns a copy of k that owner may mutate. The value and subkey
// maps are copied one level deep, so the subkeys stay shared until they
// are written themselves. The ACL map is shared: SetACL replaces a key's
// ACL and never edits one in place.
func (k *Key) copyFor(owner *Registry) *Key {
	return &Key{
		Name:    k.Name,
		ACL:     k.ACL,
		values:  maps.Clone(k.values),
		subkeys: maps.Clone(k.subkeys),
		owner:   owner,
	}
}

// Unprotected reports whether Everyone can write this key — the paper's
// criterion for a key worth perturbing.
func (k *Key) Unprotected() bool { return k.ACL.Grants(Everyone, RightWrite) }

// SubkeyNames returns the sorted subkey names.
func (k *Key) SubkeyNames() []string {
	names := make([]string, 0, len(k.subkeys))
	for n := range k.subkeys {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registry is the whole hive forest. Paths use backslash separators and a
// hive root such as `HKLM\Software\Fonts\Cleanup`.
type Registry struct {
	hives map[string]*Key
	// frozen marks the hive forest immutable so it can back Fork views;
	// any mutation attempt panics (the same tripwire discipline as
	// vfs.Freeze).
	frozen bool
	// sharedHives marks a fork whose hives map is still its base's. The
	// first write copies the map, then only the keys on the written path.
	// Most injection runs never write the registry, so most forks never
	// pay for a copy.
	sharedHives bool
}

// New returns a registry with the standard hives.
func New() *Registry {
	r := &Registry{hives: make(map[string]*Key)}
	for _, h := range []string{"HKLM", "HKCU", "HKU", "HKCR"} {
		r.hives[h] = newKey(h, DefaultACL(), r)
	}
	return r
}

func splitPath(path string) ([]string, error) {
	parts := strings.Split(path, `\`)
	if len(parts) == 0 || parts[0] == "" {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return parts, nil
}

// find walks to the key at path without permission checks.
func (r *Registry) find(path string) (*Key, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	cur, ok := r.hives[parts[0]]
	if !ok {
		return nil, fmt.Errorf("%w: hive %q", ErrNoKey, parts[0])
	}
	for _, p := range parts[1:] {
		next, ok := cur.subkeys[p]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoKey, path)
		}
		cur = next
	}
	return cur, nil
}

// writable walks parts as far as they name existing keys and returns the
// deepest one as a key r may mutate, with the number of parts it covers.
// In a fork it first copies the hive map, then each key on the walked
// path that the fork does not own yet, re-linking every copy in its
// already-copied parent; keys off the path stay shared with the base.
func (r *Registry) writable(parts []string) (*Key, int) {
	if r.sharedHives {
		r.hives = maps.Clone(r.hives)
		r.sharedHives = false
	}
	cur := r.hives[parts[0]]
	if cur.owner != r {
		cur = cur.copyFor(r)
		r.hives[parts[0]] = cur
	}
	n := 1
	for _, p := range parts[1:] {
		next, ok := cur.subkeys[p]
		if !ok {
			break
		}
		if next.owner != r {
			next = next.copyFor(r)
			cur.subkeys[p] = next
		}
		cur = next
		n++
	}
	return cur, n
}

// private returns k, the existing key find returned for path, as a key
// r may mutate: k itself when r owns it, else its copy on r's path.
func (r *Registry) private(path string, k *Key) *Key {
	if k.owner == r {
		return k
	}
	parts, _ := splitPath(path)
	k, _ = r.writable(parts)
	return k
}

// mutating is the freeze tripwire every mutator trips first.
func (r *Registry) mutating() {
	if r.frozen {
		panic("registry: mutation of frozen registry")
	}
}

// CreateKey creates the key at path (and any missing intermediate keys)
// with the given ACL. Existing keys are returned unchanged. This is a
// world-construction helper and performs no permission checks.
func (r *Registry) CreateKey(path string, acl ACL) (*Key, error) {
	r.mutating()
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if _, ok := r.hives[parts[0]]; !ok {
		return nil, fmt.Errorf("%w: hive %q", ErrNoKey, parts[0])
	}
	cur, n := r.writable(parts)
	for i := n; i < len(parts); i++ {
		next := newKey(parts[i], acl.Clone(), r)
		if i < len(parts)-1 {
			// Intermediate keys default protected.
			next.ACL = DefaultACL()
		}
		cur.subkeys[parts[i]] = next
		cur = next
	}
	return cur, nil
}

// Open returns the key at path if the subject has read access.
func (r *Registry) Open(path string, subject Principal) (*Key, error) {
	k, err := r.find(path)
	if err != nil {
		return nil, err
	}
	if !k.ACL.Grants(subject, RightRead) {
		return nil, fmt.Errorf("%w: %s for %s", ErrAccess, path, subject)
	}
	return k, nil
}

// GetString reads a string value.
func (r *Registry) GetString(path, name string, subject Principal) (string, error) {
	k, err := r.Open(path, subject)
	if err != nil {
		return "", err
	}
	v, ok := k.values[name]
	if !ok {
		return "", fmt.Errorf("%w: %s\\%s", ErrNoValue, path, name)
	}
	if v.Type != TypeString && v.Type != TypeExpandString {
		return "", fmt.Errorf("%w: %s\\%s is not a string", ErrNoValue, path, name)
	}
	return v.S, nil
}

// SetString writes a string value, subject to the key ACL.
func (r *Registry) SetString(path, name, s string, subject Principal) error {
	r.mutating()
	k, err := r.find(path)
	if err != nil {
		return err
	}
	if !k.ACL.Grants(subject, RightWrite) {
		return fmt.Errorf("%w: write %s for %s", ErrAccess, path, subject)
	}
	r.private(path, k).values[name] = Value{Type: TypeString, S: s}
	return nil
}

// DeleteValue removes a value, subject to the key ACL.
func (r *Registry) DeleteValue(path, name string, subject Principal) error {
	r.mutating()
	k, err := r.find(path)
	if err != nil {
		return err
	}
	if !k.ACL.Grants(subject, RightDelete) {
		return fmt.Errorf("%w: delete %s for %s", ErrAccess, path, subject)
	}
	if _, ok := k.values[name]; !ok {
		return fmt.Errorf("%w: %s\\%s", ErrNoValue, path, name)
	}
	delete(r.private(path, k).values, name)
	return nil
}

// SetACL replaces the ACL on the key at path. World-construction and
// perturbation helper; no permission check.
func (r *Registry) SetACL(path string, acl ACL) error {
	r.mutating()
	k, err := r.find(path)
	if err != nil {
		return err
	}
	r.private(path, k).ACL = acl.Clone()
	return nil
}

// Walk visits every key depth-first, in sorted order, calling fn with the
// full backslash path.
func (r *Registry) Walk(fn func(path string, k *Key)) {
	hives := make([]string, 0, len(r.hives))
	for h := range r.hives {
		hives = append(hives, h)
	}
	sort.Strings(hives)
	var rec func(path string, k *Key)
	rec = func(path string, k *Key) {
		fn(path, k)
		for _, name := range k.SubkeyNames() {
			rec(path+`\`+name, k.subkeys[name])
		}
	}
	for _, h := range hives {
		rec(h, r.hives[h])
	}
}

// UnprotectedKeys returns the paths of every key writable by Everyone —
// the key inventory Section 4.2's static-analysis step produces.
func (r *Registry) UnprotectedKeys() []string {
	var out []string
	r.Walk(func(path string, k *Key) {
		if k.Unprotected() {
			out = append(out, path)
		}
	})
	return out
}

// Freeze marks the registry immutable so it can serve as the base image
// for Fork views. Any subsequent mutation attempt panics.
func (r *Registry) Freeze() { r.frozen = true }

// Fork returns a mutable registry view sharing the (frozen) receiver's
// hive forest. Construction is O(1). A write through the view copies the
// hive map and the keys on the path from the hive to the written key,
// nothing else, so runs that never write the registry — the overwhelming
// majority — share the base for free, and one that does pays for the
// depth of the key, not the size of the forest.
func (r *Registry) Fork() *Registry {
	if !r.frozen {
		panic("registry: Fork of unfrozen registry")
	}
	return &Registry{hives: r.hives, sharedHives: true}
}
