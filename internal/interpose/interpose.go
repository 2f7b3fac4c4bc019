// Package interpose implements the interaction-point bus at the heart of
// the environment-perturbation methodology.
//
// The EAI model (Du & Mathur, DSN 2000) injects faults "at the points where
// the environment and the application interact" — in a real system, the
// libc/syscall boundary. In this reproduction every simulated syscall is
// routed through a Bus: pre-hooks run before the kernel touches the
// environment (where *direct* environment faults are applied, Section 3.3
// step 6), post-hooks run after the result is computed but before the
// application sees it (where *indirect* faults perturb the value an
// internal entity receives). The Bus also records the execution trace from
// which interaction points are enumerated.
package interpose

import (
	"fmt"
	"strconv"
)

// Op identifies the kind of environment interaction.
type Op string

// Operations. The set mirrors the syscall surface of the simulated kernel
// plus the network, registry, and process-message substrates.
const (
	OpOpen     Op = "open"
	OpCreate   Op = "create"
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpClose    Op = "close"
	OpStat     Op = "stat"
	OpLstat    Op = "lstat"
	OpMkdir    Op = "mkdir"
	OpRmdir    Op = "rmdir"
	OpUnlink   Op = "unlink"
	OpRename   Op = "rename"
	OpSymlink  Op = "symlink"
	OpReadlink Op = "readlink"
	OpReadDir  Op = "readdir"
	OpChmod    Op = "chmod"
	OpChown    Op = "chown"
	OpChdir    Op = "chdir"
	OpExec     Op = "exec"
	OpGetenv   Op = "getenv"
	OpSetenv   Op = "setenv"
	OpArg      Op = "arg"     // command-line (user) input
	OpConnect  Op = "connect" // network
	OpSend     Op = "send"    // network
	OpRecv     Op = "recv"    // network
	OpDNS      Op = "dns"     // network name resolution
	OpListen   Op = "listen"  // network
	OpAccept   Op = "accept"  // network
	OpMsgRecv  Op = "msgrecv" // process (IPC) input
	OpMsgSend  Op = "msgsend" // process (IPC) output
	OpRegOpen  Op = "regopen" // registry
	OpRegGet   Op = "regget"  // registry read
	OpRegSet   Op = "regset"  // registry write
	OpRegDel   Op = "regdel"  // registry delete
)

// HasInput reports whether the operation returns environment data to the
// application — the paper's criterion (Section 3.3 step 3) for deciding
// whether indirect faults apply at an interaction point in addition to
// direct faults.
func (o Op) HasInput() bool {
	switch o {
	case OpRead, OpReadlink, OpReadDir, OpGetenv, OpArg, OpRecv, OpDNS,
		OpAccept, OpMsgRecv, OpRegGet:
		return true
	default:
		return false
	}
}

// ObjectKind classifies the environment entity an interaction touches,
// following the paper's three-way entity taxonomy (file system, network,
// process) extended with the NT registry entity of Section 4.2 and the two
// input-only pseudo-entities (environment variables and user arguments)
// from Table 5.
type ObjectKind int

// Object kinds. Enums start at 1; the zero value means "unclassified".
const (
	KindFile ObjectKind = iota + 1
	KindDir
	KindEnvVar
	KindArg
	KindNetwork
	KindProcess
	KindRegistry
)

// String returns the entity-kind name used in reports.
func (k ObjectKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "directory"
	case KindEnvVar:
		return "environment-variable"
	case KindArg:
		return "user-input"
	case KindNetwork:
		return "network"
	case KindProcess:
		return "process"
	case KindRegistry:
		return "registry"
	default:
		return fmt.Sprintf("ObjectKind(%d)", int(k))
	}
}

// Call describes one environment interaction about to happen. Pre-hooks may
// mutate the argument fields (e.g. redirect a path); the kernel then acts
// on the mutated values.
type Call struct {
	// Seq is the global sequence number of the interaction in this run.
	Seq int
	// Site is the static identity of the call site in the application
	// ("turnin:fopen-projlist"). Together with Occur it identifies an
	// interaction point in the execution trace.
	Site string
	// Occur is the 0-based occurrence index of this Site in the run.
	Occur int
	// Op is the interaction kind.
	Op Op
	// Kind classifies the environment entity.
	Kind ObjectKind
	// Path is the primary object identifier: a file path, environment
	// variable name, registry key, or network address.
	Path string
	// Path2 is the secondary object for two-object ops (rename target,
	// symlink target).
	Path2 string
	// Data is the outgoing payload for write-like ops.
	Data []byte
	// Mode and Flags carry numeric arguments (permission bits, open flags).
	Mode  uint16
	Flags int
	// UID and EUID are the calling process's real and effective uids at the
	// time of the call; the oracle uses them to decide whether an access
	// happened "while privileged".
	UID, EUID int
	// GID and EGID are the corresponding group ids.
	GID, EGID int
	// Cwd is the caller's working directory at the time of the call, so
	// fault appliers can resolve relative object paths.
	Cwd string
}

// PointID returns the interaction-point identity "site#occur".
func (c *Call) PointID() string { return PointID(c.Site, c.Occur) }

// PointID builds the canonical interaction-point identity string. It is
// called once per traced event in the compare hot path, so it avoids the
// fmt machinery.
func PointID(site string, occur int) string {
	return site + "#" + strconv.Itoa(occur)
}

// Result carries the outcome of an interaction back toward the
// application. Post-hooks may mutate it — that mutation *is* an indirect
// environment fault.
type Result struct {
	// Data is the payload returned to the application (file bytes, env
	// value, received message).
	Data []byte
	// Str is a secondary string result (resolved link target, DNS answer).
	Str string
	// N is a numeric result (bytes written).
	N int
	// Flag is a boolean result channel (e.g. message authenticity).
	Flag bool
	// Err is the interaction error, if any. Hooks may set or clear it
	// (e.g. the service-availability perturbation forces an error).
	Err error
}

// Event is one record of the execution trace: the call as the kernel
// finally saw it, the result as the application finally saw it, and the
// post-resolution object identity.
type Event struct {
	Call   Call
	Result Result
	// ResolvedPath is the final object identity after symlink expansion —
	// what was actually read, written, or executed. The security oracle
	// keys on this, not on the path the application named.
	ResolvedPath string
	// Mutated records whether any hook changed this interaction (used by
	// reports to mark the injected point).
	Mutated bool
}

// PreHook runs before the kernel performs the interaction. Returning is
// the only control flow; hooks mutate *Call (and, via closures, the
// environment itself) to express faults.
type PreHook func(c *Call)

// PostHook runs after the kernel computed the result, before the
// application observes it.
type PostHook func(c *Call, r *Result)

// Bus is the interaction-point bus for one process run. The zero value is
// ready to use. Bus is not safe for concurrent use; each simulated process
// run owns one bus.
type Bus struct {
	pre       []PreHook
	post      []PostHook
	trace     []Event
	seq       int
	siteHits  map[string]int
	recording bool
	mutated   bool
}

// NewBus returns a Bus with trace recording enabled.
func NewBus() *Bus {
	return &Bus{siteHits: make(map[string]int), recording: true}
}

// OnPre registers a pre-hook (direct-fault position).
func (b *Bus) OnPre(h PreHook) { b.pre = append(b.pre, h) }

// OnPost registers a post-hook (indirect-fault position).
func (b *Bus) OnPost(h PostHook) { b.post = append(b.post, h) }

// SetRecording toggles trace recording (benchmark harnesses disable it to
// measure injection overhead in isolation).
func (b *Bus) SetRecording(on bool) { b.recording = on }

// ReserveTrace hands the bus a pre-sized backing buffer for trace
// recording, so a run harness that knows the expected trace length (from
// the campaign's clean run) can recycle one allocation across runs. The
// buffer is adopted only while the trace is still empty and only when it
// grows capacity; len(buf) is ignored. The caller must not touch buf
// again until the bus is discarded.
func (b *Bus) ReserveTrace(buf []Event) {
	if len(b.trace) == 0 && cap(buf) > cap(b.trace) {
		b.trace = buf[:0]
	}
}

// Begin stamps the call with its sequence and occurrence numbers and runs
// the pre-hooks. The kernel must call Begin exactly once per interaction,
// before touching the environment.
func (b *Bus) Begin(c *Call) {
	if b.siteHits == nil {
		b.siteHits = make(map[string]int)
	}
	c.Seq = b.seq
	b.seq++
	c.Occur = b.siteHits[c.Site]
	b.siteHits[c.Site]++
	b.mutated = false
	for _, h := range b.pre {
		h(c)
	}
}

// MarkMutated flags the current interaction as perturbed. Fault appliers
// call this so the trace records where the injection landed.
func (b *Bus) MarkMutated() { b.mutated = true }

// End runs the post-hooks and appends the trace event. resolved is the
// post-symlink object identity (empty when not applicable).
func (b *Bus) End(c *Call, r *Result, resolved string) {
	for _, h := range b.post {
		h(c, r)
	}
	if b.recording {
		ev := Event{Call: *c, Result: *r, ResolvedPath: resolved, Mutated: b.mutated}
		if r.Data != nil {
			ev.Result.Data = append([]byte(nil), r.Data...)
		}
		if c.Data != nil {
			ev.Call.Data = append([]byte(nil), c.Data...)
		}
		b.trace = append(b.trace, ev)
	}
}

// Trace returns the recorded events in execution order. The returned slice
// is owned by the bus; callers must not mutate it.
func (b *Bus) Trace() []Event { return b.trace }

// Len returns the number of recorded interactions.
func (b *Bus) Len() int { return len(b.trace) }

// Points returns the distinct interaction points (site#occur) in trace
// order. This is the enumeration from which the Section 3.3 procedure
// draws its per-point fault lists.
func (b *Bus) Points() []string {
	pts := make([]string, 0, len(b.trace))
	seen := make(map[string]bool, len(b.trace))
	for i := range b.trace {
		id := b.trace[i].Call.PointID()
		if !seen[id] {
			seen[id] = true
			pts = append(pts, id)
		}
	}
	return pts
}

// Sites returns the distinct static call sites in first-hit order.
func (b *Bus) Sites() []string {
	sites := make([]string, 0, len(b.trace))
	seen := make(map[string]bool, len(b.trace))
	for i := range b.trace {
		s := b.trace[i].Call.Site
		if !seen[s] {
			seen[s] = true
			sites = append(sites, s)
		}
	}
	return sites
}

// EventAt returns the first trace event at the given interaction point, or
// nil when the point never fired.
func (b *Bus) EventAt(pointID string) *Event {
	for i := range b.trace {
		if b.trace[i].Call.PointID() == pointID {
			return &b.trace[i]
		}
	}
	return nil
}
