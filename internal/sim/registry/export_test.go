package registry

import (
	"fmt"
	"sort"
)

// ValueNames returns the sorted value names.
func (k *Key) ValueNames() []string {
	names := make([]string, 0, len(k.values))
	for n := range k.values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone deep-copies the registry: the reference FuzzRegistryFork checks
// copy-on-write forks against.
func (r *Registry) Clone() *Registry {
	c := &Registry{hives: make(map[string]*Key, len(r.hives))}
	var rec func(k *Key) *Key
	rec = func(k *Key) *Key {
		nk := k.copyFor(c)
		nk.ACL = k.ACL.Clone()
		for n, sk := range k.subkeys {
			nk.subkeys[n] = rec(sk)
		}
		return nk
	}
	for h, k := range r.hives {
		c.hives[h] = rec(k)
	}
	return c
}

// Frozen reports whether Freeze has been called.
func (r *Registry) Frozen() bool { return r.frozen }

// GetDWord reads a numeric value.
func (r *Registry) GetDWord(path, name string, subject Principal) (uint32, error) {
	k, err := r.Open(path, subject)
	if err != nil {
		return 0, err
	}
	v, ok := k.values[name]
	if !ok || v.Type != TypeDWord {
		return 0, fmt.Errorf("%w: %s\\%s", ErrNoValue, path, name)
	}
	return v.D, nil
}

// SetDWord writes a numeric value, subject to the key ACL.
func (r *Registry) SetDWord(path, name string, d uint32, subject Principal) error {
	r.mutating()
	k, err := r.find(path)
	if err != nil {
		return err
	}
	if !k.ACL.Grants(subject, RightWrite) {
		return fmt.Errorf("%w: write %s for %s", ErrAccess, path, subject)
	}
	r.private(path, k).values[name] = Value{Type: TypeDWord, D: d}
	return nil
}
