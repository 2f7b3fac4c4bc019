package kernel

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// sanitizeName maps arbitrary bytes to a legal path component.
func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > 0x20 && r < 0x7f && r != '/' && r != '.' {
			b.WriteRune(r)
		}
	}
	out := b.String()
	if len(out) > vfs.MaxNameLen {
		out = out[:vfs.MaxNameLen]
	}
	return out
}

// Property: create-write-read round-trips arbitrary content.
func TestWriteReadRoundTrip(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	f := func(name string, content []byte) bool {
		n := sanitizeName(name)
		if n == "" {
			return true
		}
		path := "/tmp/" + n
		fh, err := p.Create("prop:create", path, 0o644)
		if err != nil {
			return false
		}
		if _, err := p.Write("prop:write", fh, content); err != nil {
			return false
		}
		if err := p.Close(fh); err != nil {
			return false
		}
		got, err := p.ReadFile("prop:read", path)
		return err == nil && bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the kernel's open-for-read decision agrees with vfs.Allows for
// arbitrary modes and subjects.
func TestOpenAgreesWithAllows(t *testing.T) {
	t.Parallel()
	f := func(mode uint16, uid, gid uint8) bool {
		k := newWorld(t)
		m := vfs.Mode(mode) & vfs.ModePermMask
		if err := k.FS.WriteFile("/tmp/probe", []byte("x"), m, 100, 100); err != nil {
			return false
		}
		subject := k.NewProc(proc.NewCred(int(uid), int(gid)), nil, "/")
		n, err := k.FS.Lookup("/", "/tmp/probe")
		if err != nil {
			return false
		}
		want := vfs.Allows(n, int(uid), int(gid), vfs.WantRead)
		_, err = subject.Open("prop:open", "/tmp/probe", ORead, 0)
		return (err == nil) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a successful open pins the inode — renaming the path afterward
// never changes what the handle reads.
func TestHandlePinsInode(t *testing.T) {
	t.Parallel()
	f := func(content []byte) bool {
		k := newWorld(t)
		p := alice(k)
		if err := k.FS.WriteFile("/tmp/pinned", content, 0o644, 100, 100); err != nil {
			return false
		}
		fh, err := p.Open("prop:open", "/tmp/pinned", ORead, 0)
		if err != nil {
			return false
		}
		// Swap the path out from under the handle.
		if err := k.FS.Rename("/", "/tmp/pinned", "/tmp/elsewhere"); err != nil {
			return false
		}
		if err := k.FS.WriteFile("/tmp/pinned", []byte("imposter"), 0o644, 666, 666); err != nil {
			return false
		}
		got, err := p.ReadAll("prop:read", fh)
		return err == nil && bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every syscall leaves exactly one event on the trace, with
// monotonically increasing sequence numbers.
func TestTraceSequenceMonotone(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	ops := []func(){
		func() { _, _ = p.Stat("m:a", "/etc/passwd") },
		func() { _ = p.Getenv("m:b", "PATH") },
		func() { _, _ = p.Lstat("m:c", "/etc") },
		func() { _, _ = p.Create("m:d", "/tmp/x", 0o644) },
		func() { _ = p.Mkdir("m:e", "/tmp/d", 0o755) },
		func() { _ = p.Arg("m:f", 0) },
	}
	for _, op := range ops {
		op()
	}
	trace := k.Bus.Trace()
	if len(trace) != len(ops) {
		t.Fatalf("trace = %d events, want %d", len(trace), len(ops))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Call.Seq <= trace[i-1].Call.Seq {
			t.Errorf("sequence not monotone at %d", i)
		}
	}
}

// Property: umask only ever removes bits from the requested mode.
func TestUmaskOnlyRemovesBits(t *testing.T) {
	t.Parallel()
	f := func(reqMode, mask uint16) bool {
		k := newWorld(t)
		p := alice(k)
		p.SetUmask(vfs.Mode(mask))
		req := vfs.Mode(reqMode) & 0o777
		fh, err := p.Create("prop:create", "/tmp/masked", req)
		if err != nil {
			return false
		}
		_ = fh
		n, err := k.FS.Lookup("/", "/tmp/masked")
		if err != nil {
			return false
		}
		// Every granted bit was requested.
		return n.Mode&^req == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestExecTrusted covers the atomic check-and-exec primitive.
func TestExecTrusted(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	if err := k.FS.WriteFile("/usr/bin/rootbin", []byte("#!"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile("/usr/bin/userbin", []byte("#!"), 0o755, 666, 666); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile("/usr/bin/groupwrit", []byte("#!"), 0o775, 0, 0); err != nil {
		t.Fatal(err)
	}
	p := alice(k)
	if _, err := p.ExecTrusted("t:e1", "/usr/bin/rootbin", 0); err != nil {
		t.Errorf("trusted exec of root-owned 0755: %v", err)
	}
	if _, err := p.ExecTrusted("t:e2", "/usr/bin/userbin", 0); !errors.Is(err, ErrPerm) {
		t.Errorf("trusted exec of non-root binary err = %v", err)
	}
	if _, err := p.ExecTrusted("t:e3", "/usr/bin/groupwrit", 0); !errors.Is(err, ErrPerm) {
		t.Errorf("trusted exec of group-writable binary err = %v", err)
	}
	if _, err := p.ExecTrusted("t:e4", "/usr/bin/missing", 0); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("trusted exec of missing binary err = %v", err)
	}
}

// TestRunResetBetweenWorlds: two worlds from the same factory do not share
// filesystem state.
func TestWorldsIndependent(t *testing.T) {
	t.Parallel()
	k1 := newWorld(t)
	k2 := newWorld(t)
	if err := k1.FS.WriteFile("/tmp/only-in-1", []byte("x"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if k2.FS.Exists("/tmp/only-in-1") {
		t.Error("worlds share a filesystem")
	}
}
