package interpose

import (
	"errors"
	"testing"
)

func TestOpHasInput(t *testing.T) {
	t.Parallel()
	withInput := []Op{OpRead, OpReadlink, OpReadDir, OpGetenv, OpArg, OpRecv,
		OpDNS, OpAccept, OpMsgRecv, OpRegGet}
	withoutInput := []Op{OpOpen, OpCreate, OpWrite, OpClose, OpStat, OpMkdir,
		OpUnlink, OpRename, OpSymlink, OpChmod, OpChown, OpChdir, OpExec,
		OpSetenv, OpConnect, OpSend, OpListen, OpMsgSend, OpRegSet, OpRegDel}
	for _, op := range withInput {
		if !op.HasInput() {
			t.Errorf("%s.HasInput() = false, want true", op)
		}
	}
	for _, op := range withoutInput {
		if op.HasInput() {
			t.Errorf("%s.HasInput() = true, want false", op)
		}
	}
}

func TestObjectKindString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		k    ObjectKind
		want string
	}{
		{KindFile, "file"},
		{KindDir, "directory"},
		{KindEnvVar, "environment-variable"},
		{KindArg, "user-input"},
		{KindNetwork, "network"},
		{KindProcess, "process"},
		{KindRegistry, "registry"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestBusSequencingAndOccurrence(t *testing.T) {
	t.Parallel()
	b := NewBus()
	calls := []string{"a", "b", "a", "a", "b"}
	for _, site := range calls {
		c := &Call{Site: site, Op: OpOpen, Kind: KindFile}
		b.Begin(c)
		b.End(c, &Result{}, "")
	}
	tr := b.Trace()
	if len(tr) != 5 {
		t.Fatalf("trace len = %d, want 5", len(tr))
	}
	wantOccur := []int{0, 0, 1, 2, 1}
	for i, ev := range tr {
		if ev.Call.Seq != i {
			t.Errorf("event %d Seq = %d", i, ev.Call.Seq)
		}
		if ev.Call.Occur != wantOccur[i] {
			t.Errorf("event %d Occur = %d, want %d", i, ev.Call.Occur, wantOccur[i])
		}
	}
	pts := b.Points()
	if len(pts) != 5 {
		t.Errorf("Points = %v, want 5 distinct", pts)
	}
	sites := b.Sites()
	if len(sites) != 2 || sites[0] != "a" || sites[1] != "b" {
		t.Errorf("Sites = %v", sites)
	}
}

func TestPreHookMutatesCall(t *testing.T) {
	t.Parallel()
	b := NewBus()
	b.OnPre(func(c *Call) {
		if c.Site == "victim" {
			c.Path = "/etc/passwd"
			b.MarkMutated()
		}
	})
	c := &Call{Site: "victim", Op: OpCreate, Kind: KindFile, Path: "/tmp/spool"}
	b.Begin(c)
	if c.Path != "/etc/passwd" {
		t.Errorf("pre-hook did not mutate path: %q", c.Path)
	}
	b.End(c, &Result{}, "/etc/passwd")
	if !b.Trace()[0].Mutated {
		t.Error("trace event not marked mutated")
	}
}

func TestPostHookMutatesResult(t *testing.T) {
	t.Parallel()
	b := NewBus()
	b.OnPost(func(c *Call, r *Result) {
		if c.Op == OpGetenv {
			r.Data = []byte("/attacker/bin:/usr/bin")
		}
	})
	c := &Call{Site: "s", Op: OpGetenv, Kind: KindEnvVar, Path: "PATH"}
	b.Begin(c)
	r := &Result{Data: []byte("/usr/bin")}
	b.End(c, r, "")
	if string(r.Data) != "/attacker/bin:/usr/bin" {
		t.Errorf("post-hook did not mutate result: %q", r.Data)
	}
}

func TestPostHookForcesError(t *testing.T) {
	t.Parallel()
	errDenied := errors.New("service unavailable")
	b := NewBus()
	b.OnPost(func(c *Call, r *Result) { r.Err = errDenied })
	c := &Call{Site: "s", Op: OpConnect, Kind: KindNetwork, Path: "db:5432"}
	b.Begin(c)
	r := &Result{}
	b.End(c, r, "")
	if !errors.Is(r.Err, errDenied) {
		t.Errorf("err = %v", r.Err)
	}
}

func TestTraceDataIsolation(t *testing.T) {
	t.Parallel()
	b := NewBus()
	payload := []byte("secret")
	c := &Call{Site: "s", Op: OpRead, Kind: KindFile, Path: "/f"}
	b.Begin(c)
	r := &Result{Data: payload}
	b.End(c, r, "/f")
	payload[0] = 'X'
	if string(b.Trace()[0].Result.Data) != "secret" {
		t.Error("trace aliases caller buffer")
	}
}

func TestRecordingToggle(t *testing.T) {
	t.Parallel()
	b := NewBus()
	b.SetRecording(false)
	c := &Call{Site: "s", Op: OpOpen}
	b.Begin(c)
	b.End(c, &Result{}, "")
	if b.Len() != 0 {
		t.Error("recorded while disabled")
	}
	b.SetRecording(true)
	c2 := &Call{Site: "s", Op: OpOpen}
	b.Begin(c2)
	b.End(c2, &Result{}, "")
	if b.Len() != 1 {
		t.Error("did not record while enabled")
	}
	// Occurrence counting continues even while not recording.
	if c2.Occur != 1 {
		t.Errorf("Occur = %d, want 1", c2.Occur)
	}
}

func TestEventAt(t *testing.T) {
	t.Parallel()
	b := NewBus()
	for i := 0; i < 3; i++ {
		c := &Call{Site: "loop", Op: OpRead, Path: "/f"}
		b.Begin(c)
		b.End(c, &Result{N: i}, "/f")
	}
	ev := b.EventAt("loop#1")
	if ev == nil || ev.Result.N != 1 {
		t.Fatalf("EventAt(loop#1) = %+v", ev)
	}
	if b.EventAt("loop#9") != nil {
		t.Error("EventAt for missing point should be nil")
	}
}

func TestZeroValueBusUsable(t *testing.T) {
	t.Parallel()
	var b Bus
	c := &Call{Site: "s", Op: OpOpen}
	b.Begin(c)
	b.End(c, &Result{}, "")
	// Zero value does not record (recording defaults false) but must not
	// panic and must still count occurrences.
	if c.Occur != 0 {
		t.Errorf("Occur = %d", c.Occur)
	}
}

func TestMutatedFlagResetsPerCall(t *testing.T) {
	t.Parallel()
	b := NewBus()
	first := true
	b.OnPre(func(c *Call) {
		if first {
			b.MarkMutated()
			first = false
		}
	})
	c1 := &Call{Site: "a", Op: OpOpen}
	b.Begin(c1)
	b.End(c1, &Result{}, "")
	c2 := &Call{Site: "a", Op: OpOpen}
	b.Begin(c2)
	b.End(c2, &Result{}, "")
	tr := b.Trace()
	if !tr[0].Mutated || tr[1].Mutated {
		t.Errorf("mutated flags = %v, %v; want true, false", tr[0].Mutated, tr[1].Mutated)
	}
}
