package inject

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"repro/internal/interpose"
	"repro/internal/sim/proc"
)

// EngineVersion identifies the planning and execution semantics of this
// injection engine. It is mixed into every plan fingerprint, so bumping
// it invalidates all cached campaign results at once. Bump whenever a
// change could alter a planned fault list or a run outcome for an
// unchanged campaign: new catalog faults, different dedup rules,
// different oracle semantics, different trace recording.
const EngineVersion = "eptest-engine/2"

// Fingerprint returns the content address of this plan: a hex SHA-256
// over the engine version, the caller-supplied labels (typically the
// suite job's name and variant), the campaign configuration, the engine
// options, the clean-run trace, and the ordered planned fault list.
//
// Two plans that differ in any input steps 6-8 consume hash
// differently: the fault list and the fault/policy configuration are
// hashed directly, and the program under test plus the parts of the
// world it interacts with are pinned transitively by the clean trace.
// The pin has a deliberate limit: world state the clean run never
// observes (say, the permission bits of a file only the oracle
// consults) is invisible to the trace, so editing it in the world
// factory does not change the fingerprint — changing campaign code
// requires clearing the store or bumping EngineVersion. The result
// store keys cached campaign results by this value; see docs/STORE.md
// for the invalidation rules, this caveat, and the exact byte stream.
func (p *ExecPlan) Fingerprint(labels ...string) string {
	e := getEncoder()
	defer e.release()
	e.str(EngineVersion)
	e.labels(labels)
	e.campaign(&p.campaign)
	e.options(p.opt)

	e.int(len(p.shell.CleanTrace))
	for i := range p.shell.CleanTrace {
		e.event(&p.shell.CleanTrace[i])
	}

	// The planned fault list, run by run, in the fields Planned reports.
	e.int(len(p.plans))
	for i := range p.plans {
		k := p.RunKey(i)
		e.point(k.Site, k.Occur)
		e.str(k.FaultID)
		e.int(int(p.plans[i].kind))
		e.int(int(k.Class))
		e.int(int(k.Attr))
		e.int(int(k.Sem))
	}
	return e.sum()
}

// SourceFingerprint returns the content address of the campaign's
// *source* — the declared world-builder/program identity plus every
// configuration input the plan fingerprint hashes — or ok=false when
// the campaign declares no Source. Unlike (*ExecPlan).Fingerprint it
// needs no clean run, so a cache hit under this address skips the
// campaign entirely, clean trace included.
//
// The trust model is weaker than the plan fingerprint's: the trace
// pins the program transitively, while Source is a declaration. A
// stale Source (world builder or program changed without a version
// bump) replays results for code that no longer exists. The two
// addresses live in disjoint hash domains, so a store can hold both
// for one campaign; see docs/STORE.md.
func SourceFingerprint(c Campaign, opt Options, labels ...string) (string, bool) {
	if c.Source == "" {
		return "", false
	}
	// PrepareWith defaults the fault config before the plan fingerprint
	// hashes it; mirror that so both addresses see one configuration.
	c.Faults = c.Faults.WithDefaults()
	e := getEncoder()
	defer e.release()
	e.str(EngineVersion)
	e.str("source-fingerprint")
	e.str(c.Source)
	e.labels(labels)
	e.campaign(&c)
	e.options(opt)
	return e.sum(), true
}

// encoder builds the byte stream a fingerprint hashes:
//
//   - an int is 8 bytes, little-endian (two's complement);
//   - a string or byte slice is its length as an int, then its bytes,
//     so adjacent fields cannot alias ("ab","c" vs "a","bc");
//   - a bool is one byte, 0 or 1;
//   - an interaction point is the string "site#occur".
//
// The whole stream is hashed with one sha256.Sum256. Encoders are
// pooled, so a fingerprint allocates its hex string and nothing else
// once the pool is warm.
type encoder struct {
	buf  []byte
	keys []string // scratch for sorting map keys
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// getEncoder returns an empty pooled encoder.
func getEncoder() *encoder {
	e := encoders.Get().(*encoder)
	e.buf = e.buf[:0]
	return e
}

// release returns the encoder to the pool. The key scratch is cleared
// so the pool pins no campaign's strings.
func (e *encoder) release() {
	clear(e.keys[:cap(e.keys)])
	e.keys = e.keys[:0]
	encoders.Put(e)
}

// sum hashes the stream and returns the digest in lower-case hex.
func (e *encoder) sum() string {
	d := sha256.Sum256(e.buf)
	var x [2 * sha256.Size]byte
	hex.Encode(x[:], d[:])
	return string(x[:])
}

func (e *encoder) int(v int) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(int64(v)))
}

func (e *encoder) str(s string) {
	e.int(len(s))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) {
	e.int(len(b))
	e.buf = append(e.buf, b...)
}

func (e *encoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// point appends interpose.PointID(site, occur) as a string without
// building it: the length prefix is patched in once the digits are out.
func (e *encoder) point(site string, occur int) {
	at := len(e.buf)
	e.int(0)
	e.buf = append(e.buf, site...)
	e.buf = append(e.buf, '#')
	e.buf = strconv.AppendInt(e.buf, int64(occur), 10)
	binary.LittleEndian.PutUint64(e.buf[at:], uint64(len(e.buf)-at-8))
}

func (e *encoder) labels(labels []string) {
	e.int(len(labels))
	for _, l := range labels {
		e.str(l)
	}
}

func (e *encoder) cred(c proc.Cred) {
	e.int(c.UID)
	e.int(c.GID)
	e.int(c.EUID)
	e.int(c.EGID)
	e.int(c.SUID)
}

// sortedKeys returns m's keys in order, in the encoder's scratch.
func sortedKeys[V any](e *encoder, m map[string]V) []string {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	return e.keys
}

// campaign appends the campaign fields the runs consume: the name, the
// site selection, the semantic annotations, the oracle policy, and the
// (defaulted) fault configuration.
func (e *encoder) campaign(c *Campaign) {
	e.str(c.Name)
	e.int(len(c.Sites))
	for _, s := range c.Sites {
		e.str(s)
	}
	sems := sortedKeys(e, c.Semantics)
	e.int(len(sems))
	for _, site := range sems {
		e.str(site)
		e.int(int(c.Semantics[site]))
	}

	pol := &c.Policy
	e.cred(pol.Invoker)
	e.cred(pol.Attacker)
	e.int(len(pol.TrustedWritePaths))
	for _, p := range pol.TrustedWritePaths {
		e.str(p)
	}
	e.int(pol.MinLeakLen)

	cfg := &c.Faults
	e.cred(cfg.Attacker)
	e.str(cfg.AttackerDir)
	e.str(cfg.ReadTarget)
	e.str(cfg.WriteTarget)
	e.str(cfg.DirTarget)
	e.bytes(cfg.AttackerContent)
	e.str(cfg.EvilHost)
	overrides := sortedKeys(e, cfg.ReadTargetOverrides)
	e.int(len(overrides))
	for _, obj := range overrides {
		e.str(obj)
		e.str(cfg.ReadTargetOverrides[obj])
	}
}

// options appends the engine options (they change both the fault list
// and the injection timing).
func (e *encoder) options(opt Options) {
	e.bool(opt.NoObjectDedup)
	e.bool(opt.OnlyDirect)
	e.bool(opt.OnlyIndirect)
	e.bool(opt.DirectAfterPoint)
}

// event appends one clean-trace event: the call as the kernel saw it
// and the result as the application saw it. A nil error encodes as the
// empty string.
func (e *encoder) event(ev *interpose.Event) {
	c := &ev.Call
	e.int(c.Seq)
	e.int(c.Occur)
	e.int(c.Flags)
	e.int(c.UID)
	e.int(c.EUID)
	e.int(c.GID)
	e.int(c.EGID)
	e.int(int(c.Mode))
	e.int(int(c.Kind))
	e.str(c.Site)
	e.str(string(c.Op))
	e.str(c.Path)
	e.str(c.Path2)
	e.bytes(c.Data)
	e.str(c.Cwd)
	r := &ev.Result
	e.bytes(r.Data)
	e.str(r.Str)
	e.int(r.N)
	e.bool(r.Flag)
	if r.Err != nil {
		e.str(r.Err.Error())
	} else {
		e.str("")
	}
	e.str(ev.ResolvedPath)
	e.bool(ev.Mutated)
}
