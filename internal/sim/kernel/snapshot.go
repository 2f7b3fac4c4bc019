package kernel

import (
	"repro/internal/interpose"
	"repro/internal/sim/vfs"
)

// Snapshot is an immutable clean-world image: the filesystem, registry
// and account database frozen in place, plus copies of the network
// scripts and mailbox queues. Fork stamps out a mutable kernel in
// O(small): the VFS, registry, accounts and mailbox queues are shared
// copy-on-write, so only the network scripts are cloned eagerly.
type Snapshot struct {
	fs        *vfs.FS
	mailboxes map[string][][]byte
	src       *Kernel
}

// Snapshot freezes the kernel's filesystem, registry and account
// database and captures the rest of its state as the clean-world image.
// The receiver must not be mutated afterwards — VFS and registry writes
// and Users.Add panic once frozen, and the mailbox queues are
// deep-copied here so later Fork calls see the capture-time state.
func (k *Kernel) Snapshot() *Snapshot {
	k.FS.Freeze()
	if k.Reg != nil {
		k.Reg.Freeze()
	}
	k.Users.Freeze()
	return &Snapshot{
		fs:        k.FS,
		mailboxes: cloneMailboxes(k.mailboxes),
		src:       k,
	}
}

// FS returns the frozen base filesystem. The security oracle can use it
// directly as the pre-run state snapshot: it is immutable by construction,
// so no defensive clone is needed.
func (s *Snapshot) FS() *vfs.FS { return s.fs }

// FreezeFS freezes the kernel's current filesystem in place, installs a
// copy-on-write fork of it for the continuing run, and returns the frozen
// image — the zero-clone snapshot primitive. The image is the world
// exactly as of the call, captured in O(cow-map size) instead of a deep
// clone; every subsequent operation lands in the fork, including writes
// through file handles opened before the call (handle inodes resolve
// through the fork's view/own barriers, never mutating the image).
// Re-freezing mid-run is legal: a run forked from a campaign snapshot
// simply gains a second frozen generation, and forks of forks chase the
// copy-on-write chain transparently.
func (k *Kernel) FreezeFS() *vfs.FS {
	frozen := k.FS
	frozen.Freeze()
	k.FS = frozen.Fork()
	return frozen
}

// Fork returns a fresh mutable kernel backed by the snapshot. The VFS,
// registry, account database and mailbox table are copy-on-write views
// of the frozen state — a write copies only what it touches, and a
// received message is copied out to the receiver — and the network is
// cloned, so no mutable state is shared between forks. The inode counter
// continues from the snapshot's value, which keeps a forked run's trace
// bit-identical to one against a freshly built world.
func (s *Snapshot) Fork() *Kernel {
	k := &Kernel{
		FS:              s.fs.Fork(),
		Users:           s.src.Users.Fork(),
		Bus:             interpose.NewBus(),
		mailboxes:       s.mailboxes,
		sharedMailboxes: true,
	}
	if s.src.Net != nil {
		k.Net = s.src.Net.Clone()
	}
	if s.src.Reg != nil {
		k.Reg = s.src.Reg.Fork()
	}
	return k
}

// cloneMailboxes deep-copies the mailbox queues. Each copied queue is
// exactly as long as its capacity, so a fork that appends to a queue it
// shares reallocates it instead of writing into the snapshot's.
func cloneMailboxes(m map[string][][]byte) map[string][][]byte {
	out := make(map[string][][]byte, len(m))
	for name, msgs := range m {
		cp := make([][]byte, len(msgs))
		for i, msg := range msgs {
			cp[i] = append([]byte(nil), msg...)
		}
		out[name] = cp
	}
	return out
}
