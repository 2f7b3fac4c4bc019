package policy

import (
	"repro/internal/interpose"
	"repro/internal/sim/vfs"
)

// Seed is per-campaign oracle state precomputed over the clean trace: the
// violations each rule reports on the unperturbed run (tagged with their
// trace indices), the confidentiality candidates whose leak judgement
// depends on a run's stdout, and the untrusted-input taint position.
//
// EvaluateFrom(armed, obs) is then equivalent to Evaluate(obs) whenever
// two preconditions hold, both guaranteed by the injection engine for the
// runs it seeds:
//
//   - obs.Trace[:armed] is byte-identical to the clean trace's first
//     armed events. Faults arm exactly at the armed interaction point, so
//     every event before it replays the clean run.
//   - obs.Snap is the same frozen base filesystem the seed was built
//     against. An applied direct fault replaces the run's Snap with the
//     post-injection world, which invalidates every precomputed
//     readability/writability judgement — such runs must keep the full
//     Evaluate walk.
//
// A Seed is immutable after NewSeed and safe for concurrent EvaluateFrom
// calls from many runs of the same campaign.
type Seed struct {
	p Policy

	// integ and exec are the clean-trace violations of the index-ordered
	// integrity and untrusted-exec rules.
	integ []seedViolation
	exec  []seedViolation
	// leaks are the clean-trace protected reads (stdout-independent
	// conditions satisfied); whether each leaked is re-judged against the
	// run's stdout. On tolerating campaigns this list is empty and the
	// confidentiality prefix costs nothing per run.
	leaks []leakCandidate

	// taintIdx is the clean trace's first authenticity-failed receive
	// (-1 when none), mutIdx the first successful mutation after it
	// (-1 when none), and mutV the violation those two events render.
	taintIdx   int
	taintPoint string
	taintObj   string
	mutIdx     int
	mutV       Violation
}

// seedViolation is a precomputed violation tagged with the clean-trace
// index of the event that triggered it, so EvaluateFrom can replay
// exactly the prefix before a run's armed point.
type seedViolation struct {
	idx int
	v   Violation
}

// leakCandidate is a clean-trace protected read. data aliases the clean
// trace's event payload, which the engine retains for the campaign's
// lifetime.
type leakCandidate struct {
	idx   int
	point string
	obj   string
	data  []byte
}

// NewSeed precomputes the oracle state for a campaign whose runs fork
// from the frozen base filesystem snap and replay trace up to their armed
// points. It walks the clean trace once; every seeded run then pays only
// for its suffix.
func NewSeed(p Policy, trace []interpose.Event, snap *vfs.FS) *Seed {
	s := &Seed{p: p, taintIdx: -1, mutIdx: -1}
	obs := Observation{Trace: trace, Snap: snap}

	p.integrityScan(obs, 0, nil, func(i int, v Violation) {
		s.integ = append(s.integ, seedViolation{i, v})
	})

	min := p.minLeak()
	for i := range trace {
		ev := &trace[i]
		if data, ok := p.protectedRead(ev, snap, min); ok {
			s.leaks = append(s.leaks, leakCandidate{
				idx:   i,
				point: ev.Call.PointID(),
				obj:   ev.ResolvedPath,
				data:  data,
			})
		}
	}

	p.untrustedExecScan(obs, 0, func(i int, v Violation) {
		s.exec = append(s.exec, seedViolation{i, v})
	})

	for i := range trace {
		if taintSource(&trace[i]) {
			s.taintIdx = i
			s.taintPoint = trace[i].Call.PointID()
			s.taintObj = trace[i].Call.Path
			break
		}
	}
	if s.taintIdx >= 0 {
		for i := s.taintIdx + 1; i < len(trace); i++ {
			ev := &trace[i]
			if isMutating(ev.Call.Op) && ev.Result.Err == nil {
				s.mutIdx = i
				s.mutV = taintViolation(s.taintPoint, s.taintObj, ev)
				break
			}
		}
	}
	return s
}

// EvaluateFrom evaluates the policy over obs, replaying precomputed
// results for the trace prefix before the armed index and walking only
// obs.Trace[armed:] live. See the Seed type comment for the two
// preconditions under which this equals s's Policy.Evaluate(obs).
func (s *Seed) EvaluateFrom(armed int, obs Observation) []Violation {
	if armed < 0 {
		armed = 0
	}
	start := armed
	if start > len(obs.Trace) {
		start = len(obs.Trace)
	}
	var out []Violation

	// Integrity: prefix verdicts verbatim, then the live suffix with the
	// prefix's reported objects carried into the dedup set.
	var seen map[string]bool
	for _, sv := range s.integ {
		if sv.idx >= armed {
			break
		}
		if seen == nil {
			seen = make(map[string]bool)
		}
		seen[sv.v.Object] = true
		out = append(out, sv.v)
	}
	s.p.integrityScan(obs, start, seen, func(_ int, v Violation) { out = append(out, v) })

	// Confidentiality: the prefix's protected reads were precomputed, but
	// whether each leaked depends on this run's stdout.
	seen = nil
	min := s.p.minLeak()
	for i := range s.leaks {
		lc := &s.leaks[i]
		if lc.idx >= armed {
			break
		}
		if seen[lc.obj] {
			continue
		}
		if leakedChunk(obs.Stdout, lc.data, min) {
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[lc.obj] = true
			out = append(out, Violation{
				Kind:   KindConfidentiality,
				Point:  lc.point,
				Object: lc.obj,
				Detail: s.p.leakDetail(),
			})
		}
	}
	s.p.confidentialityScan(obs, start, seen, func(_ int, v Violation) { out = append(out, v) })

	// Untrusted exec: index-local, no cross-event state.
	for _, sv := range s.exec {
		if sv.idx >= armed {
			break
		}
		out = append(out, sv.v)
	}
	s.p.untrustedExecScan(obs, start, func(_ int, v Violation) { out = append(out, v) })

	out = append(out, s.untrustedInputFrom(armed, start, obs)...)

	if obs.CrashMsg != "" {
		out = append(out, Violation{
			Kind:   KindCrash,
			Object: "process",
			Detail: obs.CrashMsg,
		})
	}
	return out
}

// untrustedInputFrom is the seeded untrusted-input rule. The taint search
// over the prefix happened at seed time; only the mutation search (or the
// whole rule, when the prefix is taint-free) runs over the suffix.
func (s *Seed) untrustedInputFrom(armed, start int, obs Observation) []Violation {
	if s.taintIdx < 0 || s.taintIdx >= armed {
		// The prefix is taint-free, so the full rule starting at the
		// armed event is the whole rule.
		return s.p.untrustedInputScan(obs, start)
	}
	if s.mutIdx >= 0 && s.mutIdx < armed {
		// Both the taint and the first mutation after it sit in the
		// replayed prefix.
		return []Violation{s.mutV}
	}
	// Tainted in the prefix; the clean trace's first mutation (if any)
	// falls at or after the armed point, so the prefix portion after the
	// taint is mutation-free and the search resumes at the armed event.
	return firstMutationAfter(obs, start, s.taintPoint, s.taintObj)
}
