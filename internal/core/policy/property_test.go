package policy

import (
	"testing"
	"testing/quick"

	"repro/internal/interpose"
	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// Property: adding trusted prefixes never creates violations — the trusted
// set only ever suppresses findings.
func TestTrustedPrefixMonotone(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t)
	obs := Observation{
		Snap: snap,
		Trace: []interpose.Event{
			ev("a:w", interpose.OpWrite, "/etc/passwd", 0),
			ev("a:u", interpose.OpUnlink, "/u/ta/.login", 0),
		},
	}
	base := stdPolicy()
	base.TrustedWritePaths = nil
	baseline := len(base.Evaluate(obs))
	f := func(pick uint8) bool {
		wider := base
		prefixes := []string{"/etc", "/u/ta", "/nowhere", "/u"}
		for i, p := range prefixes {
			if pick&(1<<i) != 0 {
				wider.TrustedWritePaths = append(wider.TrustedWritePaths, p)
			}
		}
		return len(wider.Evaluate(obs)) <= baseline
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a run with an empty trace and no crash is always tolerated.
func TestEmptyRunTolerated(t *testing.T) {
	t.Parallel()
	f := func(invoker, attacker uint8) bool {
		p := Policy{
			Invoker:  proc.NewCred(int(invoker), int(invoker)),
			Attacker: proc.NewCred(int(attacker), int(attacker)),
		}
		return len(p.Evaluate(Observation{Snap: vfs.New()})) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: failed events never contribute violations, whatever the op.
func TestFailedEventsIgnored(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t)
	p := stdPolicy()
	ops := []interpose.Op{
		interpose.OpWrite, interpose.OpCreate, interpose.OpUnlink,
		interpose.OpChmod, interpose.OpChown, interpose.OpRead,
		interpose.OpExec, interpose.OpMkdir, interpose.OpRename,
	}
	f := func(opIdx uint8, euid uint8) bool {
		e := ev("x:y", ops[int(opIdx)%len(ops)], "/etc/passwd", int(euid))
		e.Result.Err = vfs.ErrNotExist
		e.Result.Data = []byte("root:x:0:0:root:/:/bin/sh\n")
		obs := Observation{
			Snap:   snap,
			Trace:  []interpose.Event{e},
			Stdout: e.Result.Data,
		}
		return len(p.Evaluate(obs)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: violations scale sub-additively per object — repeating the
// same offending event many times yields exactly one integrity finding.
func TestPerObjectDedupProperty(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t)
	p := stdPolicy()
	f := func(n uint8) bool {
		count := int(n%20) + 1
		var trace []interpose.Event
		for i := 0; i < count; i++ {
			trace = append(trace, ev("x:w", interpose.OpWrite, "/etc/passwd", 0))
		}
		return len(p.Evaluate(Observation{Snap: snap, Trace: trace})) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMkdirIntegrity: planting a directory in a protected parent is an
// integrity violation (the redirected-submitdir scenario).
func TestMkdirIntegrity(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	obs := Observation{
		Snap:  snapWorld(t),
		Trace: []interpose.Event{ev("t:mkdir", interpose.OpMkdir, "/etc/assignment1", 0)},
	}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindIntegrity {
		t.Fatalf("mkdir in /etc = %v", got)
	}
}

// TestChmodOfProtectedObject: loosening permissions on a protected object
// is an integrity violation (the escalation path of the logon scenario).
func TestChmodOfProtectedObject(t *testing.T) {
	t.Parallel()
	p := stdPolicy()
	obs := Observation{
		Snap:  snapWorld(t),
		Trace: []interpose.Event{ev("t:chmod", interpose.OpChmod, "/etc/shadow", 0)},
	}
	got := p.Evaluate(obs)
	if len(got) != 1 || got[0].Kind != KindIntegrity {
		t.Fatalf("chmod of shadow = %v", got)
	}
}
