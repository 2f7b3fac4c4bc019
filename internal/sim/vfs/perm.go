package vfs

// Access rights requested of an inode. These combine into a bitmask.
const (
	WantRead  Mode = 0o4
	WantWrite Mode = 0o2
	WantExec  Mode = 0o1
)

// Allows reports whether a subject with the given effective uid and gid is
// granted every right in want on inode n under standard UNIX semantics:
// uid 0 bypasses read/write checks (and exec when any exec bit is set), the
// owner class applies when uid matches, otherwise the group class when gid
// matches, otherwise the other class. Exactly one class applies — an owner
// denied write is denied even if "other" would permit it.
func Allows(n *Inode, uid, gid int, want Mode) bool {
	if uid == 0 {
		if want&WantExec == 0 {
			return true
		}
		// Root needs at least one exec bit somewhere (or a directory).
		if n.Type == TypeDir || n.Mode&(ModeUserExec|ModeGroupExec|ModeOtherExec) != 0 {
			return want&(WantRead|WantWrite) == 0 ||
				Allows(n, uid, gid, want&(WantRead|WantWrite))
		}
		return false
	}
	var granted Mode
	switch {
	case n.UID == uid:
		granted = (n.Mode >> 6) & 0o7
	case n.GID == gid:
		granted = (n.Mode >> 3) & 0o7
	default:
		granted = n.Mode & 0o7
	}
	return granted&want == want
}

// WritableBy reports whether the given uid/gid can write the inode. It is
// Allows specialised for the oracle's common question.
func WritableBy(n *Inode, uid, gid int) bool { return Allows(n, uid, gid, WantWrite) }

// ReadableBy reports whether the given uid/gid can read the inode.
func ReadableBy(n *Inode, uid, gid int) bool { return Allows(n, uid, gid, WantRead) }
