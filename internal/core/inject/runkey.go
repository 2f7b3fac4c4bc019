package inject

import (
	"bytes"
	"maps"
	"slices"

	"repro/internal/core/eai"
	"repro/internal/interpose"
)

// RunKey identifies what one planned run executes inside its world:
// the armed interaction point, the fault, and — for a direct fault —
// its timing. Two runs of plans that share a world (SameWorld) and
// have equal keys read exactly the same inputs, so they produce equal
// Injections, and the sched dispatcher executes each such run once per
// pass. This is the exact, executed form of the paper's future-work
// reduction: "exploit static analysis to further reduce the number of
// fault injection locations by finding the equivalence relationship
// among those locations". The site selection and the dedup,
// direct-only and indirect-only options decide which runs a plan
// schedules, never what a run does, so none of them is part of the key.
type RunKey struct {
	// Site and Occur are the armed interaction point.
	Site  string
	Occur int
	// FaultID, Class, Attr and Sem are the injected fault.
	FaultID string
	Class   eai.Class
	Attr    eai.Attr
	Sem     eai.Semantic
	// Late is Options.DirectAfterPoint for a direct fault. Indirect
	// faults always fire after the point, so theirs is false.
	Late bool
}

// RunKey returns run i's key. It allocates nothing.
func (p *ExecPlan) RunKey(i int) RunKey {
	pl := &p.plans[i]
	k := RunKey{Site: pl.site, Occur: pl.occur}
	switch {
	case pl.dir != nil:
		k.FaultID, k.Class, k.Attr = pl.dir.ID, eai.ClassDirect, pl.dir.Attr
		k.Late = p.opt.DirectAfterPoint
	case pl.ind != nil:
		k.FaultID, k.Class, k.Sem = pl.ind.ID, eai.ClassIndirect, pl.ind.Sem
	}
	return k
}

// Source returns the campaign's declared world and program identity
// (Campaign.Source); empty when the campaign declares none.
func (p *ExecPlan) Source() string { return p.campaign.Source }

// SameWorld reports whether runs of p and q with equal RunKeys are
// interchangeable: both campaigns declare the same non-empty Source,
// and their oracle policies, fault configurations and clean traces are
// equal. Source stands for the world and program, as it does for
// SourceFingerprint; the clean-trace comparison catches a Source that
// names two different programs.
func (p *ExecPlan) SameWorld(q *ExecPlan) bool {
	a, b := &p.campaign, &q.campaign
	return a.Source != "" && a.Source == b.Source &&
		samePolicy(a, b) && sameFaults(&a.Faults, &b.Faults) &&
		sameTrace(p.shell.CleanTrace, q.shell.CleanTrace)
}

// samePolicy compares the oracle configurations of two campaigns.
func samePolicy(a, b *Campaign) bool {
	pa, pb := &a.Policy, &b.Policy
	return pa.Invoker == pb.Invoker && pa.Attacker == pb.Attacker &&
		pa.MinLeakLen == pb.MinLeakLen && slices.Equal(pa.TrustedWritePaths, pb.TrustedWritePaths)
}

// sameFaults compares two (defaulted) fault configurations.
func sameFaults(a, b *eai.Config) bool {
	return a.Attacker == b.Attacker && a.AttackerDir == b.AttackerDir &&
		a.ReadTarget == b.ReadTarget && a.WriteTarget == b.WriteTarget &&
		a.DirTarget == b.DirTarget && a.EvilHost == b.EvilHost &&
		bytes.Equal(a.AttackerContent, b.AttackerContent) &&
		maps.Equal(a.ReadTargetOverrides, b.ReadTargetOverrides)
}

// sameTrace compares two clean traces field by field — the fields
// fpEvent hashes, with errors compared by their text.
func sameTrace(a, b []interpose.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		cx, cy := &x.Call, &y.Call
		if cx.Seq != cy.Seq || cx.Site != cy.Site || cx.Occur != cy.Occur || cx.Op != cy.Op ||
			cx.Kind != cy.Kind || cx.Path != cy.Path || cx.Path2 != cy.Path2 ||
			!bytes.Equal(cx.Data, cy.Data) || cx.Mode != cy.Mode || cx.Flags != cy.Flags ||
			cx.UID != cy.UID || cx.EUID != cy.EUID || cx.GID != cy.GID || cx.EGID != cy.EGID ||
			cx.Cwd != cy.Cwd {
			return false
		}
		rx, ry := &x.Result, &y.Result
		if !bytes.Equal(rx.Data, ry.Data) || rx.Str != ry.Str || rx.N != ry.N || rx.Flag != ry.Flag ||
			errText(rx.Err) != errText(ry.Err) {
			return false
		}
		if x.ResolvedPath != y.ResolvedPath || x.Mutated != y.Mutated {
			return false
		}
	}
	return true
}

// errText renders an optional error for comparison.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
