// Package policy implements the security oracle: given the execution trace
// of a (possibly perturbed) run and a snapshot of the environment, it
// decides whether the run violated the security policy — the paper's
// Section 3.3 step 8, "detect if security policy is violated".
//
// All judgements are made relative to two principals: the Invoker (the
// real uid the program runs on behalf of) and the Attacker (the principal
// performing environment perturbations; often, but not always, the same as
// the invoker — in the Windows NT case of Section 4.2 the attacker is an
// unprivileged user while the invoker is an administrator).
package policy

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/interpose"
	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// Kind classifies a security violation.
type Kind int

// Violation kinds.
const (
	// KindIntegrity: the run modified or removed an object beyond the
	// judged principals' authority (e.g. truncating /etc/passwd through a
	// symlinked spool file).
	KindIntegrity Kind = iota + 1
	// KindConfidentiality: content the invoker may not read appeared in
	// invoker-visible output (e.g. /etc/shadow through Projlist).
	KindConfidentiality
	// KindUntrustedExec: the process executed an attacker-controllable
	// binary with authority the attacker lacks.
	KindUntrustedExec
	// KindUntrustedInput: the process accepted inauthentic or untrusted
	// input and went on to mutate the environment anyway.
	KindUntrustedInput
	// KindCrash: the run ended in a simulated memory error — failed
	// toleration, counted separately from policy violations as in the
	// Fuzz comparison.
	KindCrash
)

// String returns the violation-kind name used in reports.
func (k Kind) String() string {
	switch k {
	case KindIntegrity:
		return "integrity"
	case KindConfidentiality:
		return "confidentiality"
	case KindUntrustedExec:
		return "untrusted-exec"
	case KindUntrustedInput:
		return "untrusted-input"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Violation is one detected policy breach.
type Violation struct {
	Kind Kind
	// Point is the interaction point (site#occur) whose event triggered
	// detection ("" for whole-run violations such as crashes).
	Point string
	// Object is the environment object involved.
	Object string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s at %s: %s", v.Kind, v.Object, v.Point, v.Detail)
}

// Policy is the campaign's security policy specification.
type Policy struct {
	// Invoker is the user on whose behalf the program runs.
	Invoker proc.Cred
	// Attacker is the principal performing perturbations.
	Attacker proc.Cred
	// TrustedWritePaths are path prefixes the application legitimately
	// manages (the TA's submit directory for turnin, the font directory
	// for the NT cleanup module). Mutations inside them are never
	// integrity violations.
	TrustedWritePaths []string
	// MinLeakLen is the minimum number of bytes of protected content that
	// must appear in output to count as a confidentiality leak. Zero means
	// the default of 8.
	MinLeakLen int
}

// Observation is everything the oracle sees about one run.
type Observation struct {
	// Trace is the recorded interaction sequence.
	Trace []interpose.Event
	// Stdout is the invoker-visible output of the run.
	Stdout []byte
	// CrashMsg is non-empty when the run ended in a simulated memory
	// error.
	CrashMsg string
	// Snap is the filesystem as of fault injection (or as of launch when
	// no direct fault rewrote the world). Pre-existence and
	// readability/writability judgements are made against it.
	Snap *vfs.FS
}

func (p Policy) minLeak() int {
	if p.MinLeakLen > 0 {
		return p.MinLeakLen
	}
	return 8
}

func (p Policy) trusted(path string) bool {
	for _, prefix := range p.TrustedWritePaths {
		if path == prefix || strings.HasPrefix(path, strings.TrimSuffix(prefix, "/")+"/") {
			return true
		}
	}
	return false
}

// snapNode returns the inode at path in the snapshot, or nil. The oracle
// calls it for every mutating or exec event of every run's trace, with
// the ResolvedPaths the kernel recorded. Peek walks them as Resolve does,
// so it names the same object, and it allocates nothing unless the walk
// meets a symlink.
func snapNode(snap *vfs.FS, path string) *vfs.Inode {
	if snap == nil || path == "" {
		return nil
	}
	return snap.Peek(path, false)
}

// snapParent returns the snapshot inode of path's parent directory.
func snapParent(snap *vfs.FS, path string) *vfs.Inode {
	if snap == nil || path == "" || path == "/" {
		return nil
	}
	i := strings.LastIndex(path, "/")
	dir := path[:i]
	if dir == "" {
		dir = "/"
	}
	return snapNode(snap, dir)
}

// isMutating reports whether the operation changes the environment.
func isMutating(op interpose.Op) bool {
	switch op {
	case interpose.OpWrite, interpose.OpCreate, interpose.OpUnlink,
		interpose.OpRename, interpose.OpChmod, interpose.OpChown,
		interpose.OpMkdir, interpose.OpRmdir, interpose.OpSymlink,
		interpose.OpRegSet, interpose.OpRegDel, interpose.OpSend,
		interpose.OpMsgSend, interpose.OpSetenv:
		return true
	default:
		return false
	}
}

// isFSMutation selects the mutations judged by the integrity rule.
func isFSMutation(op interpose.Op) bool {
	switch op {
	case interpose.OpWrite, interpose.OpCreate, interpose.OpUnlink,
		interpose.OpRename, interpose.OpChmod, interpose.OpChown,
		interpose.OpMkdir:
		return true
	default:
		return false
	}
}

// Evaluate applies every rule to the observation and returns the detected
// violations. An empty result means the run tolerated the environment
// (whatever was injected into it).
func (p Policy) Evaluate(obs Observation) []Violation {
	var out []Violation
	out = append(out, p.integrity(obs)...)
	out = append(out, p.confidentiality(obs)...)
	out = append(out, p.untrustedExec(obs)...)
	out = append(out, p.untrustedInput(obs)...)
	if obs.CrashMsg != "" {
		out = append(out, Violation{
			Kind:   KindCrash,
			Object: "process",
			Detail: obs.CrashMsg,
		})
	}
	return out
}

// integrity: a successful filesystem mutation on
//   - a pre-existing object that the invoker or the attacker could not
//     write, or
//   - a fresh object in a directory neither the invoker nor the attacker
//     could write,
//
// outside the trusted write paths, exceeds delegated authority.
func (p Policy) integrity(obs Observation) []Violation {
	var out []Violation
	p.integrityScan(obs, 0, nil, func(_ int, v Violation) { out = append(out, v) })
	return out
}

// integrityScan applies the integrity rule to obs.Trace[start:], emitting
// each violation with its trace index. seen carries objects already
// reported by an earlier portion of the walk (nil when none): the rule
// reports each object at most once, so a seeded evaluation pre-populates
// it from the prefix.
func (p Policy) integrityScan(obs Observation, start int, seen map[string]bool, emit func(int, Violation)) {
	for i := start; i < len(obs.Trace); i++ {
		ev := &obs.Trace[i]
		if !isFSMutation(ev.Call.Op) || ev.Result.Err != nil {
			continue
		}
		obj := ev.ResolvedPath
		if obj == "" || p.trusted(obj) || seen[obj] {
			continue
		}
		if n := snapNode(obs.Snap, obj); n != nil {
			invokerOK := vfs.WritableBy(n, p.Invoker.UID, p.Invoker.GID)
			attackerOK := vfs.WritableBy(n, p.Attacker.UID, p.Attacker.GID)
			if !invokerOK || !attackerOK {
				if seen == nil {
					seen = make(map[string]bool)
				}
				seen[obj] = true
				emit(i, Violation{
					Kind:   KindIntegrity,
					Point:  ev.Call.PointID(),
					Object: obj,
					Detail: fmt.Sprintf("%s of pre-existing object not writable by invoker(uid %d) and/or attacker(uid %d)", ev.Call.Op, p.Invoker.UID, p.Attacker.UID),
				})
			}
			continue
		}
		// Fresh object: judge the containing directory.
		if ev.Call.Op != interpose.OpCreate && ev.Call.Op != interpose.OpMkdir &&
			ev.Call.Op != interpose.OpWrite && ev.Call.Op != interpose.OpRename {
			continue
		}
		if d := snapParent(obs.Snap, obj); d != nil {
			invokerOK := vfs.Allows(d, p.Invoker.UID, p.Invoker.GID, vfs.WantWrite)
			attackerOK := vfs.Allows(d, p.Attacker.UID, p.Attacker.GID, vfs.WantWrite)
			if !invokerOK && !attackerOK {
				if seen == nil {
					seen = make(map[string]bool)
				}
				seen[obj] = true
				emit(i, Violation{
					Kind:   KindIntegrity,
					Point:  ev.Call.PointID(),
					Object: obj,
					Detail: fmt.Sprintf("%s planted a new object in a directory writable by neither invoker nor attacker", ev.Call.Op),
				})
			}
		}
	}
}

// confidentiality: content read from an object the invoker cannot read
// must not reach invoker-visible output.
func (p Policy) confidentiality(obs Observation) []Violation {
	var out []Violation
	p.confidentialityScan(obs, 0, nil, func(_ int, v Violation) { out = append(out, v) })
	return out
}

// protectedRead is the stdout-independent half of the confidentiality
// rule: it reports whether ev is a successful read of content the invoker
// may not see, returning the payload when it is at least min bytes. The
// seeded oracle precomputes these candidates over the clean trace and
// re-judges only the stdout-dependent leak test per run.
func (p Policy) protectedRead(ev *interpose.Event, snap *vfs.FS, min int) ([]byte, bool) {
	if ev.Call.Op != interpose.OpRead || ev.Result.Err != nil {
		return nil, false
	}
	obj := ev.ResolvedPath
	if obj == "" || snap == nil {
		return nil, false
	}
	n := snapNode(snap, obj)
	if n == nil {
		// Follow a final symlink in the snapshot, in case the object
		// identity is itself the link.
		n = snap.Peek(obj, true)
	}
	if n == nil || vfs.ReadableBy(n, p.Invoker.UID, p.Invoker.GID) {
		return nil, false
	}
	if len(ev.Result.Data) < min {
		return nil, false
	}
	return ev.Result.Data, true
}

// leakDetail renders the confidentiality violation explanation.
func (p Policy) leakDetail() string {
	return fmt.Sprintf("content of object unreadable by invoker(uid %d) appeared on stdout", p.Invoker.UID)
}

// confidentialityScan applies the confidentiality rule to
// obs.Trace[start:]. seen carries objects already reported by the prefix,
// as in integrityScan.
func (p Policy) confidentialityScan(obs Observation, start int, seen map[string]bool, emit func(int, Violation)) {
	min := p.minLeak()
	for i := start; i < len(obs.Trace); i++ {
		ev := &obs.Trace[i]
		if seen[ev.ResolvedPath] {
			continue
		}
		data, ok := p.protectedRead(ev, obs.Snap, min)
		if !ok {
			continue
		}
		if leakedChunk(obs.Stdout, data, min) {
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[ev.ResolvedPath] = true
			emit(i, Violation{
				Kind:   KindConfidentiality,
				Point:  ev.Call.PointID(),
				Object: ev.ResolvedPath,
				Detail: p.leakDetail(),
			})
		}
	}
}

// leakedChunk reports whether any min-length window of data appears in out.
// Checking windows rather than the whole payload catches partial leaks
// (an application that prints protected content line by line). Windows
// slide by min/2 and the final min bytes are always probed, so a leaked
// chunk straddling a min-aligned tile boundary (or sitting at the tail of
// a payload that is not a multiple of min) cannot be missed.
func leakedChunk(out, data []byte, min int) bool {
	if len(data) < min || len(out) < min {
		return false
	}
	if bytes.Contains(out, data) {
		return true
	}
	step := min / 2
	if step < 1 {
		step = 1
	}
	for i := 0; i+min <= len(data); i += step {
		if bytes.Contains(out, data[i:i+min]) {
			return true
		}
	}
	return bytes.Contains(out, data[len(data)-min:])
}

// untrustedExec: executing a binary the attacker controls, with authority
// the attacker lacks, hands the attacker that authority.
func (p Policy) untrustedExec(obs Observation) []Violation {
	var out []Violation
	p.untrustedExecScan(obs, 0, func(_ int, v Violation) { out = append(out, v) })
	return out
}

// untrustedExecScan applies the untrusted-exec rule to obs.Trace[start:].
func (p Policy) untrustedExecScan(obs Observation, start int, emit func(int, Violation)) {
	for i := start; i < len(obs.Trace); i++ {
		ev := &obs.Trace[i]
		if ev.Call.Op != interpose.OpExec || ev.Result.Err != nil {
			continue
		}
		if ev.Call.EUID == p.Attacker.UID && ev.Call.EUID == ev.Call.UID {
			continue // the attacker executing their own code is not a breach
		}
		n := snapNode(obs.Snap, ev.ResolvedPath)
		if n == nil {
			continue
		}
		if n.UID == p.Attacker.UID || vfs.WritableBy(n, p.Attacker.UID, p.Attacker.GID) {
			emit(i, Violation{
				Kind:   KindUntrustedExec,
				Point:  ev.Call.PointID(),
				Object: ev.ResolvedPath,
				Detail: fmt.Sprintf("executed attacker-controllable binary with euid %d", ev.Call.EUID),
			})
		}
	}
}

// taintViolation renders the untrusted-input violation for the tainting
// receive and the mutation event that followed it.
func taintViolation(point, obj string, mut *interpose.Event) Violation {
	return Violation{
		Kind:   KindUntrustedInput,
		Point:  point,
		Object: obj,
		Detail: fmt.Sprintf("acted on inauthentic network input (mutation %s at %s followed)", mut.Call.Op, mut.Call.PointID()),
	}
}

// taintSource reports whether ev is an authenticity-failed receive — the
// event that taints everything after it.
func taintSource(ev *interpose.Event) bool {
	return ev.Call.Op == interpose.OpRecv && ev.Result.Err == nil && !ev.Result.Flag
}

// untrustedInput: accepting provenance-less input and then mutating the
// environment means the mutation is attacker-steered.
func (p Policy) untrustedInput(obs Observation) []Violation {
	return p.untrustedInputScan(obs, 0)
}

// untrustedInputScan applies the untrusted-input rule with the taint
// search starting at obs.Trace[start] — a seeded evaluation whose prefix
// is known taint-free starts the search at the armed event.
func (p Policy) untrustedInputScan(obs Observation, start int) []Violation {
	tainted := -1
	taintedPoint := ""
	taintedObj := ""
	for i := start; i < len(obs.Trace); i++ {
		ev := &obs.Trace[i]
		if taintSource(ev) {
			tainted = i
			taintedPoint = ev.Call.PointID()
			taintedObj = ev.Call.Path
			break
		}
	}
	if tainted < 0 {
		return nil
	}
	return firstMutationAfter(obs, tainted+1, taintedPoint, taintedObj)
}

// firstMutationAfter returns the untrusted-input violation for the first
// successful mutation at or after obs.Trace[from], or nil.
func firstMutationAfter(obs Observation, from int, taintedPoint, taintedObj string) []Violation {
	for i := from; i < len(obs.Trace); i++ {
		ev := &obs.Trace[i]
		if isMutating(ev.Call.Op) && ev.Result.Err == nil {
			return []Violation{taintViolation(taintedPoint, taintedObj, ev)}
		}
	}
	return nil
}
