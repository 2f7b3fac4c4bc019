package policy

import (
	"strings"
	"testing"

	"repro/internal/interpose"
	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// snapWorld builds a snapshot filesystem with the canonical protected and
// open objects.
func snapWorld(t testing.TB) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(fs.MkdirAll("/", "/tmp", 0o777, 0, 0))
	must(fs.MkdirAll("/", "/u/ta/submit", 0o700, 200, 200))
	must(fs.WriteFile("/etc/passwd", []byte("root:x:0:0:root:/:/bin/sh\n"), 0o644, 0, 0))
	must(fs.WriteFile("/etc/shadow", []byte("root:$1$SECRETHASH$:10000:\n"), 0o600, 0, 0))
	must(fs.WriteFile("/u/ta/.login", []byte("setenv SHELL /bin/csh\n"), 0o644, 200, 200))
	must(fs.WriteFile("/tmp/scratch", []byte("scratch-data"), 0o666, 100, 100))
	must(fs.WriteFile("/tmp/evil-bin", []byte("#!"), 0o777, 666, 666))
	return fs
}

func stdPolicy() Policy {
	return Policy{
		Invoker:           proc.NewCred(100, 100),
		Attacker:          proc.NewCred(100, 100),
		TrustedWritePaths: []string{"/u/ta/submit"},
	}
}

func ev(site string, op interpose.Op, resolved string, euid int) interpose.Event {
	return interpose.Event{
		Call:         interpose.Call{Site: site, Op: op, Path: resolved, UID: 100, EUID: euid},
		ResolvedPath: resolved,
	}
}

func TestKindString(t *testing.T) {
	t.Parallel()
	kinds := map[Kind]string{
		KindIntegrity:       "integrity",
		KindConfidentiality: "confidentiality",
		KindUntrustedExec:   "untrusted-exec",
		KindUntrustedInput:  "untrusted-input",
		KindCrash:           "crash",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestIntegrityPreExistingUnwritable(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	obs := Observation{
		Snap:  snapWorld(t),
		Trace: []interpose.Event{ev("lpr:write", interpose.OpWrite, "/etc/passwd", 0)},
	}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindIntegrity {
		t.Fatalf("violations = %v", got)
	}
	if got[0].Object != "/etc/passwd" {
		t.Errorf("object = %q", got[0].Object)
	}
	if !strings.Contains(got[0].String(), "integrity") {
		t.Errorf("String() = %q", got[0].String())
	}
}

func TestIntegrityWritableObjectTolerated(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	obs := Observation{
		Snap:  snapWorld(t),
		Trace: []interpose.Event{ev("app:write", interpose.OpWrite, "/tmp/scratch", 0)},
	}
	if got := p.Evaluate(obs); len(got) != 0 {
		t.Errorf("write to invoker-writable file flagged: %v", got)
	}
}

func TestIntegrityTrustedPrefixTolerated(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	// The TA's pre-existing grading notes inside the trusted prefix.
	snap := snapWorld(t)
	if err := snap.WriteFile("/u/ta/submit/notes", []byte("x"), 0o600, 200, 200); err != nil {
		t.Fatal(err)
	}
	obs := Observation{
		Snap:  snap,
		Trace: []interpose.Event{ev("turnin:write", interpose.OpWrite, "/u/ta/submit/notes", 0)},
	}
	if got := p.Evaluate(obs); len(got) != 0 {
		t.Errorf("trusted-prefix write flagged: %v", got)
	}
	// Prefix matching must not treat /u/ta/submitX as trusted.
	obs2 := Observation{
		Snap:  snap,
		Trace: []interpose.Event{ev("turnin:write", interpose.OpWrite, "/u/ta/.login", 0)},
	}
	if got := p.Evaluate(obs2); len(got) != 1 {
		t.Errorf("escape from trusted prefix not flagged: %v", got)
	}
}

func TestIntegrityFreshObjectInProtectedDir(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	obs := Observation{
		Snap: snapWorld(t),
		Trace: []interpose.Event{
			ev("turnin:create", interpose.OpCreate, "/etc/planted.cfg", 0),
		},
	}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindIntegrity {
		t.Fatalf("plant in /etc = %v", got)
	}
	// Fresh object in a world-writable dir is fine.
	obs2 := Observation{
		Snap: snapWorld(t),
		Trace: []interpose.Event{
			ev("lpr:create", interpose.OpCreate, "/tmp/cfa001", 0),
		},
	}
	if got := p.Evaluate(obs2); len(got) != 0 {
		t.Errorf("fresh create in /tmp flagged: %v", got)
	}
}

func TestIntegrityFailedEventIgnored(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	e := ev("app:write", interpose.OpWrite, "/etc/passwd", 100)
	e.Result.Err = vfs.ErrNotExist
	obs := Observation{Snap: snapWorld(t), Trace: []interpose.Event{e}}
	if got := p.Evaluate(obs); len(got) != 0 {
		t.Errorf("failed write flagged: %v", got)
	}
}

func TestIntegrityDedupedPerObject(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	obs := Observation{
		Snap: snapWorld(t),
		Trace: []interpose.Event{
			ev("a:w1", interpose.OpWrite, "/etc/passwd", 0),
			ev("a:w2", interpose.OpWrite, "/etc/passwd", 0),
		},
	}
	if got := p.Evaluate(obs); len(got) != 1 {
		t.Errorf("expected one violation per object, got %v", got)
	}
}

func TestConfidentialityLeak(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	secret := []byte("root:$1$SECRETHASH$:10000:\n")
	read := ev("turnin:read-projlist", interpose.OpRead, "/etc/shadow", 0)
	read.Result.Data = secret
	obs := Observation{
		Snap:   snapWorld(t),
		Trace:  []interpose.Event{read},
		Stdout: append([]byte("Project list:\n"), secret...),
	}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindConfidentiality {
		t.Fatalf("violations = %v", got)
	}
}

func TestConfidentialityNoLeakWithoutOutput(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	read := ev("app:read", interpose.OpRead, "/etc/shadow", 0)
	read.Result.Data = []byte("root:$1$SECRETHASH$:10000:\n")
	obs := Observation{
		Snap:   snapWorld(t),
		Trace:  []interpose.Event{read},
		Stdout: []byte("nothing to see"),
	}
	if got := p.Evaluate(obs); len(got) != 0 {
		t.Errorf("read without output flagged: %v", got)
	}
}

func TestConfidentialityReadableFileTolerated(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	read := ev("app:read", interpose.OpRead, "/etc/passwd", 100)
	read.Result.Data = []byte("root:x:0:0:root:/:/bin/sh\n")
	obs := Observation{
		Snap:   snapWorld(t),
		Trace:  []interpose.Event{read},
		Stdout: read.Result.Data,
	}
	if got := p.Evaluate(obs); len(got) != 0 {
		t.Errorf("world-readable file leak flagged: %v", got)
	}
}

func TestConfidentialityPartialLeak(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	secret := []byte("root:$1$SECRETHASH$:10000:extra-tail-data\n")
	read := ev("app:read", interpose.OpRead, "/etc/shadow", 0)
	read.Result.Data = secret
	// Only a middle chunk of the secret is printed.
	obs := Observation{
		Snap:   snapWorld(t),
		Trace:  []interpose.Event{read},
		Stdout: secret[8:24],
	}
	if got := p.Evaluate(obs); len(got) != 1 {
		t.Errorf("partial leak not flagged: %v", got)
	}
}

func TestUntrustedExec(t *testing.T) {
	t.Parallel()
	p := Policy{Invoker: proc.NewCred(100, 100), Attacker: proc.NewCred(666, 666)}
	e := ev("mail:exec", interpose.OpExec, "/tmp/evil-bin", 100)
	obs := Observation{Snap: snapWorld(t), Trace: []interpose.Event{e}}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindUntrustedExec {
		t.Fatalf("violations = %v", got)
	}
	// Root-owned binary is fine.
	e2 := ev("mail:exec", interpose.OpExec, "/etc/passwd", 100)
	obs2 := Observation{Snap: snapWorld(t), Trace: []interpose.Event{e2}}
	if got := p.Evaluate(obs2); len(got) != 0 {
		t.Errorf("root-owned exec flagged: %v", got)
	}
	// The attacker executing their own code, as themselves, is fine.
	e3 := ev("mail:exec", interpose.OpExec, "/tmp/evil-bin", 666)
	e3.Call.UID = 666
	obs3 := Observation{Snap: snapWorld(t), Trace: []interpose.Event{e3}}
	if got := p.Evaluate(obs3); len(got) != 0 {
		t.Errorf("attacker self-exec flagged: %v", got)
	}
}

func TestUntrustedInput(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	recv := ev("ftp:recv", interpose.OpRecv, "10.0.0.5:21", 100)
	recv.Result.Flag = false // inauthentic
	write := ev("ftp:write", interpose.OpWrite, "/tmp/scratch", 100)
	obs := Observation{Snap: snapWorld(t), Trace: []interpose.Event{recv, write}}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindUntrustedInput {
		t.Fatalf("violations = %v", got)
	}
	// Authentic input followed by a write is fine.
	recv2 := recv
	recv2.Result.Flag = true
	obs2 := Observation{Snap: snapWorld(t), Trace: []interpose.Event{recv2, write}}
	if got := p.Evaluate(obs2); len(got) != 0 {
		t.Errorf("authentic input flagged: %v", got)
	}
	// Inauthentic input with no subsequent mutation (the app aborted) is
	// tolerated.
	obs3 := Observation{Snap: snapWorld(t), Trace: []interpose.Event{recv}}
	if got := p.Evaluate(obs3); len(got) != 0 {
		t.Errorf("aborting app flagged: %v", got)
	}
	// Mutation BEFORE the tainted recv does not count.
	obs4 := Observation{Snap: snapWorld(t), Trace: []interpose.Event{write, recv}}
	if got := p.Evaluate(obs4); len(got) != 0 {
		t.Errorf("pre-taint mutation flagged: %v", got)
	}
}

func TestCrash(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	obs := Observation{Snap: snapWorld(t), CrashMsg: "buffer overflow: 4101 into 256"}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindCrash {
		t.Fatalf("violations = %v", got)
	}
}

func TestToleratedCleanRun(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	// A clean turnin-like run: read config, read list, create fresh file in
	// the trusted submit dir.
	read := ev("t:read", interpose.OpRead, "/etc/passwd", 0)
	read.Result.Data = []byte("root:x:0:0:root:/:/bin/sh\n")
	obs := Observation{
		Snap: snapWorld(t),
		Trace: []interpose.Event{
			read,
			ev("t:create", interpose.OpCreate, "/u/ta/submit/proj1-hw1.c", 0),
			ev("t:write", interpose.OpWrite, "/u/ta/submit/proj1-hw1.c", 0),
		},
		Stdout: []byte("submitted.\n"),
	}
	if got := p.Evaluate(obs); len(got) != 0 {
		t.Errorf("clean run not tolerated: %v", got)
	}
}

func TestAttackerDistinctFromInvoker(t *testing.T) {
	t.Parallel()
	// The NT font-cleanup shape: invoker is an administrator (can write
	// anything), attacker is unprivileged. The module deletes a file the
	// attacker named — integrity violation judged against the attacker.
	p := Policy{
		Invoker:           proc.NewCred(0, 0),
		Attacker:          proc.NewCred(666, 666),
		TrustedWritePaths: []string{"/fonts"},
	}
	snap := snapWorld(t)
	if err := snap.MkdirAll("/", "/fonts", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteFile("/fonts/old.fon", []byte("fontdata"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Clean behaviour: deleting the real font file is inside the trusted
	// prefix.
	clean := Observation{
		Snap:  snap,
		Trace: []interpose.Event{ev("fc:unlink", interpose.OpUnlink, "/fonts/old.fon", 0)},
	}
	if got := p.Evaluate(clean); len(got) != 0 {
		t.Errorf("clean font delete flagged: %v", got)
	}
	// Perturbed behaviour: the registry key now names /etc/passwd.
	bad := Observation{
		Snap:  snap,
		Trace: []interpose.Event{ev("fc:unlink", interpose.OpUnlink, "/etc/passwd", 0)},
	}
	got := p.Evaluate(bad)
	if len(got) != 1 || got[0].Kind != KindIntegrity {
		t.Fatalf("perturbed delete = %v", got)
	}
}

func TestMinLeakDefault(t *testing.T) {
	t.Parallel()
	p := Policy{}
	if p.minLeak() != 8 {
		t.Errorf("default minLeak = %d", p.minLeak())
	}
	p.MinLeakLen = 16
	if p.minLeak() != 16 {
		t.Errorf("explicit minLeak = %d", p.minLeak())
	}
}

func TestLeakedChunk(t *testing.T) {
	t.Parallel()
	tests := []struct {
		out, data string
		min       int
		want      bool
	}{
		{"hello secret world", "secret!!', no", 8, false},
		{"prefix SECRETDATA suffix", "SECRETDATA", 8, true},
		{"chunk2-here", "chunk1--chunk2-here-chunk3--", 8, true},
		{"short", "tiny", 8, false},
		{"", "SECRETDATA", 8, false},
	}
	for _, tt := range tests {
		if got := leakedChunk([]byte(tt.out), []byte(tt.data), tt.min); got != tt.want {
			t.Errorf("leakedChunk(%q, %q) = %v, want %v", tt.out, tt.data, got, tt.want)
		}
	}
}
