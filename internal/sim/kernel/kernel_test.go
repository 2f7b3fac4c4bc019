package kernel

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interpose"
	"repro/internal/sim/netsim"
	"repro/internal/sim/proc"
	"repro/internal/sim/registry"
	"repro/internal/sim/vfs"
)

// newWorld builds a small UNIX-ish world: root, alice (100), mallory (666),
// standard directories, a protected shadow file, and a world-writable /tmp.
func newWorld(t *testing.T) *Kernel {
	t.Helper()
	k := New()
	k.Users.Add(proc.User{Name: "alice", UID: 100, GID: 100})
	k.Users.Add(proc.User{Name: "mallory", UID: 666, GID: 666})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(k.FS.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(k.FS.MkdirAll("/", "/usr/bin", 0o755, 0, 0))
	must(k.FS.MkdirAll("/", "/home/alice", 0o755, 100, 100))
	must(k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0\nalice:x:100:100\n"), 0o644, 0, 0))
	must(k.FS.WriteFile("/etc/shadow", []byte("root:SECRETHASH:0\n"), 0o600, 0, 0))
	if _, err := k.FS.Mkdir("/", "/tmp", 0o777, 0, 0); err != nil {
		t.Fatal(err)
	}
	return k
}

func alice(k *Kernel) *Proc {
	return k.NewProc(proc.NewCred(100, 100), proc.NewEnv("PATH", "/usr/bin", "HOME", "/home/alice"), "/home/alice")
}

// eventAt returns the first trace event at the given interaction point, or
// nil when the point never fired.
func eventAt(b *interpose.Bus, pointID string) *interpose.Event {
	tr := b.Trace()
	for i := range tr {
		if tr[i].Call.PointID() == pointID {
			return &tr[i]
		}
	}
	return nil
}

func TestOpenReadPermissions(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	// World-readable file opens fine.
	f, err := p.Open("t:open-passwd", "/etc/passwd", ORead, 0)
	if err != nil {
		t.Fatalf("open passwd: %v", err)
	}
	data, err := p.ReadAll("t:read-passwd", f)
	if err != nil || !strings.Contains(string(data), "alice") {
		t.Fatalf("read = %q, %v", data, err)
	}
	if err := p.Close(f); err != nil {
		t.Fatal(err)
	}
	// Protected file is denied.
	if _, err := p.Open("t:open-shadow", "/etc/shadow", ORead, 0); !errors.Is(err, ErrPerm) {
		t.Errorf("open shadow err = %v, want ErrPerm", err)
	}
	// Root reads anything.
	rootP := k.NewProc(proc.NewCred(0, 0), nil, "/")
	if _, err := rootP.Open("t:root-shadow", "/etc/shadow", ORead, 0); err != nil {
		t.Errorf("root open shadow: %v", err)
	}
}

func TestCreateSemantics(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	f, err := p.Create("t:create", "/tmp/job1", 0o666)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := p.Write("t:write", f, []byte("data")); err != nil {
		t.Fatalf("write: %v", err)
	}
	n, err := k.FS.Lookup("/", "/tmp/job1")
	if err != nil {
		t.Fatal(err)
	}
	if n.UID != 100 {
		t.Errorf("created file uid = %d, want 100", n.UID)
	}
	// Umask 022 applied.
	if n.Mode != 0o644 {
		t.Errorf("mode = %o, want 644 after umask", uint16(n.Mode))
	}
	// Cannot create where the parent denies write.
	if _, err := p.Create("t:create-etc", "/etc/evil", 0o644); !errors.Is(err, ErrPerm) {
		t.Errorf("create in /etc err = %v, want ErrPerm", err)
	}
	// Exclusive create collides.
	if _, err := p.Open("t:excl", "/tmp/job1", OWrite|OCreate|OExcl, 0o644); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("excl err = %v, want ErrExist", err)
	}
}

func TestCreateThroughSymlinkTruncatesTarget(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	// Mallory plants a symlink in /tmp pointing at /etc/passwd.
	if _, err := k.FS.Symlink("/", "/etc/passwd", "/tmp/job1", 666, 666); err != nil {
		t.Fatal(err)
	}
	// A root process (like set-UID lpr) creats /tmp/job1 → truncates passwd.
	rootP := k.NewProc(proc.NewCred(0, 0), nil, "/")
	f, err := rootP.Create("lpr:create", "/tmp/job1", 0o660)
	if err != nil {
		t.Fatalf("create through symlink: %v", err)
	}
	if f.Path != "/etc/passwd" {
		t.Errorf("resolved path = %q, want /etc/passwd", f.Path)
	}
	if _, err := rootP.Write("lpr:write", f, []byte("attacker::0:0::/:/bin/sh\n")); err != nil {
		t.Fatal(err)
	}
	got, err := k.FS.ReadFile("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "attacker") {
		t.Error("symlink attack did not reach the target — the lpr scenario depends on this")
	}
	// The trace records the RESOLVED path so the oracle can see it.
	ev := eventAt(k.Bus, "lpr:create#0")
	if ev == nil || ev.ResolvedPath != "/etc/passwd" {
		t.Errorf("trace resolved path = %+v", ev)
	}
}

func TestWriteRequiresWriteMode(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	f, err := p.Open("t:open", "/etc/passwd", ORead, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write("t:write", f, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Errorf("write on read-only handle err = %v", err)
	}
	// Closed handle rejects everything.
	if err := p.Close(f); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadAll("t:read", f); !errors.Is(err, ErrBadFD) {
		t.Errorf("read after close err = %v", err)
	}
	if err := p.Close(f); !errors.Is(err, ErrBadFD) {
		t.Errorf("double close err = %v", err)
	}
}

// TestNilHandleIsBadFD passes no handle at all to Read and Write: both
// return ErrBadFD, and the bus still records the interaction.
func TestNilHandleIsBadFD(t *testing.T) {
	t.Parallel()
	p := alice(newWorld(t))
	if _, err := p.Read("t:read", nil, 4); !errors.Is(err, ErrBadFD) {
		t.Errorf("read of a nil handle err = %v", err)
	}
	if _, err := p.Write("t:write", nil, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Errorf("write of a nil handle err = %v", err)
	}
	for _, point := range []string{"t:read#0", "t:write#0"} {
		if eventAt(p.K.Bus, point) == nil {
			t.Errorf("%s: no trace event", point)
		}
	}
}

func TestAppendAndPartialRead(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	f, err := p.Create("t:c", "/tmp/log", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write("t:w1", f, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write("t:w2", f, []byte("world")); err != nil {
		t.Fatal(err)
	}
	p.Close(f)

	g, err := p.Open("t:o", "/tmp/log", ORead, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Read("t:r1", g, 5)
	if err != nil || string(first) != "hello" {
		t.Fatalf("partial read = %q, %v", first, err)
	}
	rest, err := p.ReadAll("t:r2", g)
	if err != nil || string(rest) != " world" {
		t.Fatalf("rest = %q, %v", rest, err)
	}
	// Append mode starts at EOF.
	h, err := p.Open("t:a", "/tmp/log", OWrite|OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write("t:w3", h, []byte("!")); err != nil {
		t.Fatal(err)
	}
	data, _ := k.FS.ReadFile("/tmp/log")
	if string(data) != "hello world!" {
		t.Errorf("after append: %q", data)
	}
}

func TestStatAndLstat(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	if _, err := k.FS.Symlink("/", "/etc/passwd", "/tmp/ln", 100, 100); err != nil {
		t.Fatal(err)
	}
	st, err := p.Stat("t:stat", "/tmp/ln")
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != vfs.TypeRegular || st.Path != "/etc/passwd" {
		t.Errorf("Stat = %+v", st)
	}
	lst, err := p.Lstat("t:lstat", "/tmp/ln")
	if err != nil {
		t.Fatal(err)
	}
	if !lst.Symlink || lst.Path != "/tmp/ln" {
		t.Errorf("Lstat = %+v", lst)
	}
	if _, err := p.Stat("t:statmiss", "/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("stat missing err = %v", err)
	}
}

func TestUnlinkRenamePermissions(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	// Alice cannot unlink from /etc.
	if err := p.Unlink("t:ul", "/etc/passwd"); !errors.Is(err, ErrPerm) {
		t.Errorf("unlink /etc/passwd err = %v", err)
	}
	// But can in /tmp.
	if _, err := p.Create("t:c", "/tmp/mine", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlink("t:ul2", "/tmp/mine"); err != nil {
		t.Errorf("unlink own tmp file: %v", err)
	}
}

func TestGetenvSetenvArg(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := k.NewProc(proc.NewCred(100, 100), proc.NewEnv("PATH", "/usr/bin"), "/", "prog", "-c", "cs352")
	if got := p.Getenv("t:ge", "PATH"); got != "/usr/bin" {
		t.Errorf("Getenv = %q", got)
	}
	if got := p.Getenv("t:ge2", "MISSING"); got != "" {
		t.Errorf("missing Getenv = %q", got)
	}
	if got := p.Arg("t:arg", 2); got != "cs352" {
		t.Errorf("Arg(2) = %q", got)
	}
	if got := p.Arg("t:arg2", 99); got != "" {
		t.Errorf("Arg(99) = %q", got)
	}
}

func TestExecPATHResolution(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	if err := k.FS.WriteFile("/usr/bin/tool", []byte("#!"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	p := alice(k)
	if exit, err := p.Exec("t:exec", "tool"); err != nil || exit != 0 {
		t.Fatalf("PATH exec: %d, %v", exit, err)
	}
	if ev := eventAt(k.Bus, "t:exec#0"); ev == nil || ev.ResolvedPath != "/usr/bin/tool" {
		t.Errorf("exec event = %+v, want /usr/bin/tool resolved", ev)
	}
	// The implicit PATH read appears on the trace — the paper's "invisible
	// use of an internal entity by a system call".
	found := false
	for _, ev := range k.Bus.Trace() {
		if ev.Call.Op == interpose.OpGetenv && strings.Contains(ev.Call.Site, "PATH!implicit") {
			found = true
		}
	}
	if !found {
		t.Error("implicit PATH interaction not on trace")
	}
	// Missing command.
	if exit, err := p.Exec("t:exec2", "no-such-cmd"); !errors.Is(err, ErrNotFound) || exit != 127 {
		t.Errorf("missing cmd = %d, %v", exit, err)
	}
}

func TestExecPATHHijack(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	if err := k.FS.WriteFile("/usr/bin/mail", []byte("#!"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.MkdirAll("/", "/home/mallory/bin", 0o777, 666, 666); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile("/home/mallory/bin/mail", []byte("#!"), 0o777, 666, 666); err != nil {
		t.Fatal(err)
	}
	p := k.NewProc(proc.NewCred(100, 100), proc.NewEnv("PATH", "/home/mallory/bin:/usr/bin"), "/")
	if _, err := p.Exec("t:exec", "mail"); err != nil {
		t.Fatal(err)
	}
	ev := eventAt(k.Bus, "t:exec#0")
	if ev == nil || ev.ResolvedPath != "/home/mallory/bin/mail" {
		t.Errorf("resolved = %+v, want mallory's mail first on PATH", ev)
	}
}

func TestExecPermissionDenied(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	if err := k.FS.WriteFile("/usr/bin/rootonly", []byte("#!"), 0o700, 0, 0); err != nil {
		t.Fatal(err)
	}
	p := alice(k)
	if exit, err := p.Exec("t:exec", "/usr/bin/rootonly"); !errors.Is(err, ErrPerm) || exit != 126 {
		t.Errorf("exec denied = %d, %v", exit, err)
	}
}

func TestRunCrashRecovery(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	exit, crash := k.Run(p, func(p *Proc) int {
		buf := make([]byte, 8)
		p.CopyBounded(buf, []byte("way too long for eight bytes"))
		return 0
	})
	if crash == nil || exit != 139 {
		t.Fatalf("crash = %v, exit = %d", crash, exit)
	}
	if !strings.Contains(crash.Error(), "overflow") {
		t.Errorf("crash msg = %q", crash.Error())
	}
	// Non-crash panics propagate.
	defer func() {
		if recover() == nil {
			t.Error("foreign panic swallowed")
		}
	}()
	k.Run(p, func(p *Proc) int { panic("unrelated") })
}

func TestSetEUID(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	// SUID process drops and regains privilege.
	p := k.NewProc(proc.Cred{UID: 100, GID: 100, EUID: 0, EGID: 0}, nil, "/")
	if err := p.SetEUID(100); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if p.Cred.EUID != 100 {
		t.Error("euid not dropped")
	}
	// After dropping, cannot become arbitrary user.
	if err := p.SetEUID(666); !errors.Is(err, ErrPerm) {
		t.Errorf("seteuid(666) err = %v", err)
	}
	// Restoring the real uid is always allowed.
	if err := p.SetEUID(100); err != nil {
		t.Errorf("restore: %v", err)
	}
}

func TestNetSyscalls(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	k.Net = netsim.New()
	k.Net.AddDNS("db", "10.1.1.1")
	k.Net.AddService(&netsim.Service{
		Addr: "10.1.1.1:5432", Available: true, Trusted: true,
		Script: []netsim.Message{{From: "db", Data: []byte("row1"), Authentic: true}},
	})
	p := alice(k)
	addr, err := p.DNSLookup("t:dns", "db")
	if err != nil || addr != "10.1.1.1" {
		t.Fatalf("dns = %q, %v", addr, err)
	}
	conn, err := p.Connect("t:conn", addr+":5432")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Recv("t:recv", conn)
	if err != nil || string(m.Data) != "row1" || !m.Authentic {
		t.Fatalf("recv = %+v, %v", m, err)
	}
	if err := p.Send("t:send", conn, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	if got := conn.Service().Addr; got != "10.1.1.1:5432" {
		t.Errorf("service addr = %q", got)
	}
}

func TestNetAbsent(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	if _, err := p.DNSLookup("t:dns", "x"); !errors.Is(err, ErrNoNet) {
		t.Errorf("dns err = %v", err)
	}
	if _, err := p.Connect("t:conn", "x:1"); !errors.Is(err, ErrNoNet) {
		t.Errorf("connect err = %v", err)
	}
}

func TestRegistrySyscalls(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	k.Reg = registry.New()
	if _, err := k.Reg.CreateKey(`HKLM\Software\App`, registry.UnprotectedACL()); err != nil {
		t.Fatal(err)
	}
	if err := k.Reg.SetString(`HKLM\Software\App`, "Dir", `C:\App`, registry.System); err != nil {
		t.Fatal(err)
	}
	p := alice(k)
	v, err := p.RegGetString("t:rg", `HKLM\Software\App`, "Dir")
	if err != nil || v != `C:\App` {
		t.Fatalf("RegGetString = %q, %v", v, err)
	}
	if _, err := p.RegGetString("t:rg2", `HKLM\Software\App`, "Missing"); !errors.Is(err, registry.ErrNoValue) {
		t.Errorf("missing value err = %v", err)
	}
}

func TestRegistryAbsent(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	if _, err := p.RegGetString("t:rg", `HKLM\X`, "v"); !errors.Is(err, ErrNoReg) {
		t.Errorf("err = %v", err)
	}
}

func TestMailboxes(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	k.PostMessage("spooler", []byte("job 1"))
	k.PostMessage("spooler", []byte("job 2"))
	p := alice(k)
	m1, err := p.MsgRecv("t:mr", "spooler")
	if err != nil || string(m1) != "job 1" {
		t.Fatalf("MsgRecv = %q, %v", m1, err)
	}
	// Drain then empty.
	if _, err := p.MsgRecv("t:mr2", "spooler"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MsgRecv("t:mr3", "spooler"); err == nil {
		t.Error("empty mailbox recv succeeded")
	}
}

func TestInterpositionPreHookRedirectsOpen(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	k.Bus.OnPre(func(c *interpose.Call) {
		if c.Site == "victim:open" {
			c.Path = "/etc/passwd"
		}
	})
	p := k.NewProc(proc.NewCred(0, 0), nil, "/")
	f, err := p.Open("victim:open", "/tmp/harmless", ORead, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := p.ReadAll("victim:read", f)
	if !strings.Contains(string(data), "alice") {
		t.Error("pre-hook redirection did not take effect")
	}
}

func TestInterpositionPostHookPerturbsInput(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	k.Bus.OnPost(func(c *interpose.Call, r *interpose.Result) {
		if c.Op == interpose.OpGetenv && c.Path == "PATH" {
			r.Data = []byte("/attacker:/usr/bin")
		}
	})
	p := alice(k)
	if got := p.Getenv("t:ge", "PATH"); got != "/attacker:/usr/bin" {
		t.Errorf("perturbed PATH = %q", got)
	}
}

func TestTraceCarriesCredentials(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := k.NewProc(proc.Cred{UID: 100, GID: 100, EUID: 0, EGID: 0}, nil, "/")
	if _, err := p.Create("t:c", "/tmp/x", 0o644); err != nil {
		t.Fatal(err)
	}
	ev := eventAt(k.Bus, "t:c#0")
	if ev == nil {
		t.Fatal("no event")
	}
	if ev.Call.UID != 100 || ev.Call.EUID != 0 {
		t.Errorf("creds on trace = uid %d euid %d", ev.Call.UID, ev.Call.EUID)
	}
}

func TestReadFileHelper(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	data, err := p.ReadFile("t:rf", "/etc/passwd")
	if err != nil || !strings.Contains(string(data), "root") {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// Two interactions appear: open and read.
	if eventAt(k.Bus, "t:rf:open#0") == nil || eventAt(k.Bus, "t:rf:read#0") == nil {
		t.Error("ReadFile did not produce open+read interactions")
	}
}

func TestSetUmask(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	old := p.SetUmask(0)
	if old != 0o022 {
		t.Errorf("old umask = %o", uint16(old))
	}
	f, err := p.Create("t:c", "/tmp/wide", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	n, _ := k.FS.Lookup("/", "/tmp/wide")
	if n.Mode != 0o666 {
		t.Errorf("mode with umask 0 = %o", uint16(n.Mode))
	}
}

// TestRecordedPayloadsAreCopies: the trace keeps its own copy of every
// payload. A program that overwrites the buffer it passed to Write, and
// the slice Read returned, after each call must leave every recorded
// event as it was when its call returned.
func TestRecordedPayloadsAreCopies(t *testing.T) {
	t.Parallel()
	k := newWorld(t)
	p := alice(k)
	var want []interpose.Event
	record := func() {
		t.Helper()
		tr := k.Bus.Trace()
		ev := tr[len(tr)-1]
		ev.Call.Data, ev.Result.Data = bytes.Clone(ev.Call.Data), bytes.Clone(ev.Result.Data)
		want = append(want, ev)
	}
	w, err := p.Open("t:create", "/tmp/log", OWrite|OCreate, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	record()
	buf := []byte("first line\n")
	for i, line := range []string{"second line\n", "third line!\n"} {
		if _, err := p.Write("t:write", w, buf); err != nil {
			t.Fatal(err)
		}
		record()
		copy(buf, line)
		if i == 1 {
			buf = append(buf[:0], "grown past the first buffer\n"...)
		}
	}
	r, err := p.Open("t:open", "/tmp/log", ORead, 0)
	if err != nil {
		t.Fatal(err)
	}
	record()
	for {
		data, err := p.Read("t:read", r, 7)
		if err != nil {
			t.Fatal(err)
		}
		record()
		if len(data) == 0 {
			break
		}
		for i := range data {
			data[i] = '#'
		}
		_ = append(data, "tail"...)
	}
	if got := k.Bus.Trace(); !reflect.DeepEqual(got, want) {
		t.Errorf("recorded events changed after their calls returned:\n got  %+v\n want %+v", got, want)
	}
}
