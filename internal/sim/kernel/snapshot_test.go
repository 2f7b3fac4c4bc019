package kernel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim/proc"
)

// snapWorld builds a small world with every substrate a snapshot must
// carry: users, files, symlinks, and a queued mailbox message.
func snapWorld(t *testing.T) *Kernel {
	t.Helper()
	k := New()
	k.Users.Add(proc.User{Name: "alice", UID: 100, GID: 100})
	k.Users.Add(proc.User{Name: "mallory", UID: 666, GID: 666})
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(k.FS.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o644, 0, 0))
	must(k.FS.WriteFile("/etc/shadow", []byte("root:$1$HASH$:1:\n"), 0o600, 0, 0))
	must(k.FS.MkdirAll("/", "/home/alice", 0o755, 100, 100))
	must(k.FS.WriteFile("/home/alice/notes", []byte("clean\n"), 0o644, 100, 100))
	if _, err := k.FS.Symlink("/", "/etc/passwd", "/home/alice/pw", 100, 100); err != nil {
		t.Fatal(err)
	}
	must(k.FS.MkdirAll("/", "/tmp", 0o777, 0, 0))
	k.PostMessage("inbox", []byte("hello"))
	return k
}

// TestSnapshotForkIsolation: mutations in one fork are invisible to the
// frozen base and to sibling forks, across files, mailboxes, and users.
func TestSnapshotForkIsolation(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t).Snapshot()
	base := snap.FS().Digest()

	a, b := snap.Fork(), snap.Fork()
	if err := a.FS.WriteFile("/home/alice/notes", []byte("fork a\n"), 0o644, 100, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.FS.Unlink("/", "/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	a.Users.Add(proc.User{Name: "eve", UID: 777, GID: 777})
	a.SetMailbox("inbox", nil)

	if got := snap.FS().Digest(); got != base {
		t.Fatalf("fork mutations reached the frozen base: %s != %s", got, base)
	}
	if n, err := b.FS.Lookup("/", "/home/alice/notes"); err != nil || string(n.Data) != "clean\n" {
		t.Fatalf("sibling fork sees a's write: %q, %v", n.Data, err)
	}
	if _, err := b.FS.Lookup("/", "/etc/passwd"); err != nil {
		t.Fatalf("sibling fork lost /etc/passwd: %v", err)
	}
	if _, ok := b.Users.ByName("eve"); ok {
		t.Fatal("sibling fork sees a's user table mutation")
	}
	if len(b.PeekMailbox("inbox")) != 1 {
		t.Fatal("sibling fork lost the queued mailbox message")
	}
}

// TestSnapshotFrozenBaseMutationPanics: the freeze is a tripwire, not a
// convention — writing through the snapshotted kernel must panic, for the
// filesystem and for the account database its forks share. A fork's own
// first write to the account database copies it instead.
func TestSnapshotFrozenBaseMutationPanics(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		what   string
		mutate func(k *Kernel)
	}{
		{"filesystem write", func(k *Kernel) { _ = k.FS.WriteFile("/tmp/x", []byte("y"), 0o644, 0, 0) }},
		{"Users.Add", func(k *Kernel) { k.Users.Add(proc.User{Name: "eve", UID: 777, GID: 777}) }},
	} {
		k := snapWorld(t)
		k.Snapshot()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on the snapshotted kernel did not panic", tc.what)
				}
			}()
			tc.mutate(k)
		}()
	}

	snap := snapWorld(t).Snapshot()
	a, b := snap.Fork(), snap.Fork()
	a.Users.Add(proc.User{Name: "eve", UID: 777, GID: 777})
	if _, ok := a.Users.ByUID(777); !ok {
		t.Error("fork lost its own Users.Add")
	}
	for name, k := range map[string]*Kernel{"snapshot": snap.src, "sibling fork": b} {
		if _, ok := k.Users.ByUID(777); ok {
			t.Errorf("a fork's Users.Add reached the %s", name)
		}
	}
}

// TestSnapshotForkAllocs pins the cost of stamping out a run's kernel:
// the filesystem, registry and accounts are shared, so Fork
// allocates a fixed handful of objects whatever the world holds.
func TestSnapshotForkAllocs(t *testing.T) {
	k := snapWorld(t)
	for i := 0; i < 50; i++ {
		k.Users.Add(proc.User{Name: fmt.Sprintf("user%d", i), UID: 1000 + i, GID: 1000 + i})
	}
	snap := k.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() { snap.Fork() }); allocs > maxForkAllocs {
		t.Errorf("Snapshot.Fork makes %v allocations, want at most %d", allocs, maxForkAllocs)
	}
}

// TestSnapshotForkStress hammers one snapshot from many goroutines —
// the shape the suite dispatcher produces, where every worker forks the
// same frozen campaign image concurrently. Run under -race, it is the
// data-race proof for the snapshot seam; the digest check proves the
// base never moves no matter how the forks interleave.
func TestSnapshotForkStress(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t).Snapshot()
	base := snap.FS().Digest()
	launch := proc.NewEnv("PATH", "/usr/bin")

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := snap.Fork()
				mine := fmt.Sprintf("worker %d iter %d\n", w, i)
				if err := k.FS.WriteFile("/home/alice/notes", []byte(mine), 0o644, 100, 100); err != nil {
					errs <- err
					return
				}
				if err := k.FS.Rename("/", "/etc/shadow", "/tmp/shadow"); err != nil {
					errs <- err
					return
				}
				if err := k.FS.RemoveAll("/home/alice"); err != nil {
					errs <- err
					return
				}
				// Every worker's process reads one launch environment
				// and receives the snapshot's one queued message.
				p := k.NewProc(proc.NewCred(100, 100), launch, "/")
				if got := p.Getenv("w:getenv", "PATH"); got != "/usr/bin" {
					errs <- fmt.Errorf("worker read PATH %q", got)
					return
				}
				msg, err := p.MsgRecv("w:recv", "inbox")
				if err != nil || string(msg) != "hello" {
					errs <- fmt.Errorf("worker received %q, %v", msg, err)
					return
				}
				copy(msg, "XXXXX")
				k.SetMailbox("inbox", [][]byte{[]byte(mine)})
				// Read back through a second fork taken mid-flight: it must
				// see only the clean image, never this worker's mutations.
				probe := snap.Fork()
				if n, err := probe.FS.Lookup("/", "/home/alice/notes"); err != nil || string(n.Data) != "clean\n" {
					errs <- fmt.Errorf("probe fork saw dirty state: %q, %v", n.Data, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := snap.FS().Digest(); got != base {
		t.Fatalf("stress mutated the frozen base: %s != %s", got, base)
	}
	if len(launch) != 1 || launch["PATH"] != "/usr/bin" {
		t.Fatalf("stress wrote the shared launch environment: %v", launch)
	}
}

// maxForkAllocs is what Snapshot.Fork allocates for snapWorld: the
// kernel, the filesystem and account views and the interaction bus. The
// mailbox queue holding one message is shared until the fork's first
// write to it, and the bus makes its occurrence counts at the first
// interaction.
const maxForkAllocs = 4

// TestForkMailboxCopyOnWrite: a fork shares its snapshot's mailbox queues
// until it writes one. Receiving, posting and replacing in one fork leave
// the snapshot's and a sibling's queues as they were, and a received
// message scribbled over by the receiver does not change the queued one.
func TestForkMailboxCopyOnWrite(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t).Snapshot()
	a, b := snap.Fork(), snap.Fork()
	p := a.NewProc(proc.NewCred(100, 100), nil, "/")
	msg, err := p.MsgRecv("t:recv", "inbox")
	if err != nil || string(msg) != "hello" {
		t.Fatalf("MsgRecv = %q, %v", msg, err)
	}
	copy(msg, "XXXXX")
	a.PostMessage("inbox", []byte("a's own"))
	a.PostMessage("outbox", []byte("sent"))
	a.PostMessage("inbox", []byte("more"))
	if got := a.PeekMailbox("inbox"); len(got) != 2 || string(got[0]) != "a's own" || string(got[1]) != "more" {
		t.Errorf("fork a's inbox = %q", got)
	}
	for name, k := range map[string]*Kernel{"snapshot": snap.src, "sibling fork": b, "later fork": snap.Fork()} {
		if got := k.PeekMailbox("inbox"); len(got) != 1 || string(got[0]) != "hello" {
			t.Errorf("%s inbox = %q after fork a's writes", name, got)
		}
		if got := k.PeekMailbox("outbox"); got != nil {
			t.Errorf("%s sees fork a's outbox: %q", name, got)
		}
	}
}
