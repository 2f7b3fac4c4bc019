package vfs

import (
	"testing"
	"testing/quick"
)

func TestAllows(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name     string
		mode     Mode
		uid, gid int // inode owner
		sub      [2]int
		want     Mode
		ok       bool
	}{
		{"owner read on 0600", 0o600, 100, 100, [2]int{100, 100}, WantRead, true},
		{"owner write on 0600", 0o600, 100, 100, [2]int{100, 100}, WantWrite, true},
		{"owner exec denied on 0600", 0o600, 100, 100, [2]int{100, 100}, WantExec, false},
		{"other read denied on 0600", 0o600, 100, 100, [2]int{200, 200}, WantRead, false},
		{"group read on 0640", 0o640, 100, 100, [2]int{200, 100}, WantRead, true},
		{"group write denied on 0640", 0o640, 100, 100, [2]int{200, 100}, WantWrite, false},
		{"other read on 0644", 0o644, 100, 100, [2]int{200, 200}, WantRead, true},
		{"owner class exclusive: 0077 denies owner", 0o077, 100, 100, [2]int{100, 100}, WantRead, false},
		{"group class exclusive: 0604 denies group member", 0o604, 100, 100, [2]int{200, 100}, WantRead, false},
		{"root bypasses read", 0o000, 100, 100, [2]int{0, 0}, WantRead, true},
		{"root bypasses write", 0o000, 100, 100, [2]int{0, 0}, WantWrite, true},
		{"root exec needs a bit", 0o644, 100, 100, [2]int{0, 0}, WantExec, false},
		{"root exec with any bit", 0o611, 100, 100, [2]int{0, 0}, WantExec, true},
		{"combined read+write", 0o600, 100, 100, [2]int{100, 100}, WantRead | WantWrite, true},
		{"combined partial denied", 0o400, 100, 100, [2]int{100, 100}, WantRead | WantWrite, false},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			n := &Inode{Type: TypeRegular, Mode: tt.mode, UID: tt.uid, GID: tt.gid}
			if got := Allows(n, tt.sub[0], tt.sub[1], tt.want); got != tt.ok {
				t.Errorf("Allows(%o, uid=%d) = %v, want %v", uint16(tt.mode), tt.sub[0], got, tt.ok)
			}
		})
	}
}

func TestRootExecOnDirectory(t *testing.T) {
	t.Parallel()
	dir := &Inode{Type: TypeDir, Mode: 0o700, UID: 100, GID: 100}
	if !Allows(dir, 0, 0, WantExec) {
		t.Error("root must be able to search any directory")
	}
}

func TestHelpers(t *testing.T) {
	t.Parallel()
	n := &Inode{Type: TypeRegular, Mode: 0o602, UID: 100, GID: 100}
	if !WritableBy(n, 100, 100) {
		t.Error("owner WritableBy = false")
	}
	if ReadableBy(n, 200, 200) {
		t.Error("other ReadableBy(0602) = true")
	}
}

// Property: root (euid 0) is always granted read and write on any inode.
func TestRootAlwaysReadsWrites(t *testing.T) {
	t.Parallel()
	f := func(mode uint16, uid, gid uint8) bool {
		n := &Inode{Type: TypeRegular, Mode: Mode(mode) & ModePermMask, UID: int(uid), GID: int(gid)}
		return Allows(n, 0, 0, WantRead) && Allows(n, 0, 0, WantWrite)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: exactly one permission class ever applies — granting a right to
// "other" never grants it to the owner when the owner class denies it.
func TestClassExclusivity(t *testing.T) {
	t.Parallel()
	f := func(ownerBits uint8) bool {
		// Owner bits arbitrary, other bits full.
		mode := Mode(ownerBits&0o7)<<6 | 0o007
		n := &Inode{Type: TypeRegular, Mode: mode, UID: 100, GID: 100}
		ownerCanRead := Allows(n, 100, 100, WantRead)
		return ownerCanRead == (mode&ModeUserRead != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: granting a superset of bits never reduces access.
func TestMonotonicity(t *testing.T) {
	t.Parallel()
	f := func(mode uint16, extra uint16, uid, gid uint8, want uint8) bool {
		w := Mode(want) & (WantRead | WantWrite | WantExec)
		if w == 0 {
			return true
		}
		base := Mode(mode) & ModePermMask
		wider := (base | Mode(extra)) & ModePermMask
		n1 := &Inode{Type: TypeRegular, Mode: base, UID: 50, GID: 50}
		n2 := &Inode{Type: TypeRegular, Mode: wider, UID: 50, GID: 50}
		// Widening within the subject's own class only. Use the "other"
		// class subject so owner/group bits are irrelevant.
		subUID, subGID := 200, 200
		if Allows(n1, subUID, subGID, w) {
			// Widening other-class bits cannot revoke.
			if wider&0o7 >= base&0o7 && (wider&0o7)&(base&0o7) == base&0o7 {
				return Allows(n2, subUID, subGID, w)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
