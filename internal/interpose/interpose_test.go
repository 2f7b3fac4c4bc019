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
	if len(b.Trace()) != 0 {
		t.Error("recorded while disabled")
	}
	b.SetRecording(true)
	c2 := &Call{Site: "s", Op: OpOpen}
	b.Begin(c2)
	b.End(c2, &Result{}, "")
	if len(b.Trace()) != 1 {
		t.Error("did not record while enabled")
	}
	// Occurrence counting continues even while not recording.
	if c2.Occur != 1 {
		t.Errorf("Occur = %d, want 1", c2.Occur)
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

// TestPayloadArena pins how recorded payloads are kept: copied into the
// bus's arena with their capacity cut at their length, and an empty
// payload recorded as nil.
func TestPayloadArena(t *testing.T) {
	t.Parallel()
	b := NewBus()
	var st Storage
	st.Size(4, 64, 2)
	b.ReserveTrace(&st)
	for _, p := range []string{"ab", "", "cde"} {
		c := &Call{Site: "w", Op: OpWrite, Data: []byte(p)}
		b.Begin(c)
		b.End(c, &Result{Data: []byte(p + p)}, "")
	}
	tr := b.Trace()
	if tr[1].Call.Data != nil || tr[1].Result.Data != nil {
		t.Errorf("empty payloads recorded as %q, %q; want nil", tr[1].Call.Data, tr[1].Result.Data)
	}
	first := tr[0].Call.Data
	if string(first) != "ab" || cap(first) != len(first) {
		t.Fatalf("payload %q has capacity %d, want %d", first, cap(first), len(first))
	}
	_ = append(first, 'X')
	if got := string(tr[0].Result.Data); got != "abab" {
		t.Errorf("an append through one payload reached the next: %q", got)
	}
	if &tr[0] != &st.events[:1][0] || &first[0] != &st.payloads[:1][0] {
		t.Error("the bus did not record into the reserved storage")
	}
}

// TestStorageRecycles: ReleaseTrace hands the storage back emptied and
// cleared, and the next bus records into the same memory with its
// occurrence counts starting over.
func TestStorageRecycles(t *testing.T) {
	t.Parallel()
	var st Storage
	st.Size(4, 64, 2)
	events, payloads := &st.events[:1][0], &st.payloads[:1][0]
	for run := 0; run < 3; run++ {
		b := NewBus()
		b.ReserveTrace(&st)
		for i := 0; i < 2; i++ {
			c := &Call{Site: "r", Op: OpRead}
			b.Begin(c)
			b.End(c, &Result{Data: []byte{byte('a' + run)}}, "/f")
		}
		tr := b.Trace()
		if tr[1].Call.Occur != 1 || string(tr[1].Result.Data) != string(rune('a'+run)) {
			t.Fatalf("run %d recorded %+v", run, tr[1])
		}
		b.ReleaseTrace(&st)
		if len(b.Trace()) != 0 {
			t.Fatal("a released bus still returns its trace")
		}
		if len(st.events) != 0 || len(st.payloads) != 0 || len(st.hits) != 0 {
			t.Fatalf("released storage holds %d events, %d bytes, %d sites", len(st.events), len(st.payloads), len(st.hits))
		}
		if st.events[:1][0].Call.Site != "" {
			t.Fatal("released events still reference what they recorded")
		}
		if &st.events[:1][0] != events || &st.payloads[:1][0] != payloads {
			t.Fatal("storage was reallocated instead of reused")
		}
	}
}

// TestReserveTraceAfterFirstInteraction: storage handed over after the
// bus has begun recording is ignored, so a trace is never split.
func TestReserveTraceAfterFirstInteraction(t *testing.T) {
	t.Parallel()
	b := NewBus()
	c := &Call{Site: "s", Op: OpRead}
	b.Begin(c)
	b.End(c, &Result{Data: []byte("x")}, "")
	var st Storage
	st.Size(8, 8, 1)
	b.ReserveTrace(&st)
	c2 := &Call{Site: "s", Op: OpRead}
	b.Begin(c2)
	b.End(c2, &Result{}, "")
	if tr := b.Trace(); len(tr) != 2 || string(tr[0].Result.Data) != "x" || tr[1].Call.Occur != 1 {
		t.Errorf("trace after a late ReserveTrace = %+v", tr)
	}
}
