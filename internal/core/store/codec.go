package store

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/jsonstr"
	"repro/internal/core/policy"
	"repro/internal/interpose"
)

// The store's canonical bytes, written and read by hand.
//
// A cache entry, a shard artifact, and the campaign result inside
// either, has exactly one encoding: the bytes encoding/json's Marshal
// produces for the wire types reference_test.go keeps. Members come in
// declaration order with no whitespace, omitempty members are left out
// when empty, nil slices are null and empty ones [], and strings are
// escaped as Marshal escapes them:
// the quote, the backslash, control characters, <, > and &, U+2028
// and U+2029, and each byte of invalid UTF-8 as \ufffd. The append
// functions below write those bytes without reflection.
//
// The decoder, on jsonstr.Decoder's cursor, reads them back and
// accepts nothing else. Input the encoder would not reproduce byte for
// byte — whitespace, reordered or unknown members, a needless escape,
// an empty omitempty member, \ufffd (it decodes to a rune the encoder
// writes raw) — is an error, so an accepted body is its own
// re-encoding. The encoding/json path is kept as the reference in
// reference_test.go, and the fuzz targets hold the two to each other.

// FormatVersion identifies the on-disk schema of cache entries and shard
// artifacts. Readers reject files written under a different format; see
// docs/STORE.md for the schema itself.
//
// Version 2 dropped the clean trace from the campaign encoding. A
// version-1 entry is a miss, so a store written before it re-runs each
// job once.
const FormatVersion = "eptest-store/2"

// EncodeResult renders a campaign result in the store's canonical wire
// form, the "result" member of a cache entry, which leaves out the
// clean trace. Equal results produce equal bytes, which is what the
// replay- and merge-determinism tests compare. The bytes are one
// allocation of exactly their size; the error is always nil.
func EncodeResult(r *inject.Result) ([]byte, error) {
	return encode(func(dst []byte) []byte { return appendCampaign(dst, r) }), nil
}

// DecodeResult parses the canonical wire form back into a campaign
// result, rejecting any input EncodeResult would not have produced.
// Every field a report, findings export or merge reads round-trips
// exactly; CleanTrace, which the encoding leaves out, is nil.
func DecodeResult(b []byte) (*inject.Result, error) {
	d := decoder{Decoder: jsonstr.NewDecoder(b)}
	r := d.campaign()
	d.End()
	if err := d.error(); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeEntry decodes a cache entry that may replay under fp. It
// checks the envelope as it reaches it: a foreign format or engine
// version is a *versionError, and a different fingerprint or a null
// result is an error, before any of the result is decoded.
func decodeEntry(b []byte, fp string) (*inject.Result, error) {
	d := decoder{Decoder: jsonstr.NewDecoder(b)}
	d.Expect(`{"store":`)
	st := d.str()
	d.Expect(`,"engine":`)
	eng := d.str()
	if d.Err() == nil && (st != FormatVersion || eng != inject.EngineVersion) {
		return nil, &versionError{store: st, engine: eng}
	}
	d.Expect(`,"fingerprint":`)
	if got := d.str(); d.Err() == nil && got != fp {
		return nil, fmt.Errorf("store: entry is for fingerprint %q, not %s", got, fp)
	}
	d.Expect(`,"label":`)
	d.str()
	d.Expect(`,"result":`)
	r := d.campaign()
	d.Expect("}")
	d.End()
	if err := d.error(); err != nil {
		return nil, err
	}
	return r, nil
}

// versionError reports an entry written under another store format or
// engine version than this build's.
type versionError struct{ store, engine string }

func (e *versionError) Error() string {
	return fmt.Sprintf("store: entry written by %s/%s, this build is %s/%s",
		e.store, e.engine, FormatVersion, inject.EngineVersion)
}

// bufPool recycles the buffers entries are encoded into and read into,
// so a Put or Get allocates only what it returns. A buffer grown past
// maxPooled is left to the collector, so one outsized entry does not
// stay pinned.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooled = 1 << 20

// getBuf takes an empty buffer from the pool.
func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf empties a buffer and returns it to the pool. Nothing may
// still reference its bytes.
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooled {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// encode runs an append-style encoder in a pooled buffer and returns
// its output as one allocation of exactly the encoded size.
func encode(appendTo func([]byte) []byte) []byte {
	buf := getBuf()
	b := appendTo(*buf)
	out := make([]byte, len(b))
	copy(out, b)
	*buf = b
	putBuf(buf)
	return out
}

// appendEntry appends the cache entry holding r under fp and label.
func appendEntry(dst []byte, fp, label string, r *inject.Result) []byte {
	dst = append(dst, `{"store":`...)
	dst = jsonstr.Append(dst, FormatVersion)
	dst = append(dst, `,"engine":`...)
	dst = jsonstr.Append(dst, inject.EngineVersion)
	dst = append(dst, `,"fingerprint":`...)
	dst = jsonstr.Append(dst, fp)
	dst = append(dst, `,"label":`...)
	dst = jsonstr.Append(dst, label)
	dst = append(dst, `,"result":`...)
	dst = appendCampaign(dst, r)
	return append(dst, '}')
}

// appendCampaign appends r in the canonical campaign encoding. It
// leaves out r.CleanTrace: the engine reads a clean trace only to plan,
// fingerprint and seed its oracle, and no report, findings export or
// merge of a stored result reads it.
func appendCampaign(dst []byte, r *inject.Result) []byte {
	dst = append(dst, `{"campaign":`...)
	dst = jsonstr.Append(dst, r.Campaign)
	dst = append(dst, `,"total_sites":`...)
	dst = appendStrings(dst, r.TotalSites)
	if len(r.PerturbedSites) > 0 {
		dst = append(dst, `,"perturbed_sites":`...)
		dst = appendStrings(dst, r.PerturbedSites)
	}
	dst = append(dst, `,"injections":`...)
	if r.Injections == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Injections {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInjection(dst, &r.Injections[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendInjection appends in as encoding/json writes an
// inject.Injection, whose members carry no tags.
func appendInjection(dst []byte, in *inject.Injection) []byte {
	dst = append(dst, `{"Point":`...)
	dst = jsonstr.Append(dst, in.Point)
	dst = append(dst, `,"Site":`...)
	dst = jsonstr.Append(dst, in.Site)
	dst = append(dst, `,"Kind":`...)
	dst = strconv.AppendInt(dst, int64(in.Kind), 10)
	dst = append(dst, `,"FaultID":`...)
	dst = jsonstr.Append(dst, in.FaultID)
	dst = append(dst, `,"Class":`...)
	dst = strconv.AppendInt(dst, int64(in.Class), 10)
	dst = append(dst, `,"Attr":`...)
	dst = strconv.AppendInt(dst, int64(in.Attr), 10)
	dst = append(dst, `,"Sem":`...)
	dst = strconv.AppendInt(dst, int64(in.Sem), 10)
	dst = append(dst, `,"Applied":`...)
	dst = strconv.AppendBool(dst, in.Applied)
	dst = append(dst, `,"ApplyErr":`...)
	dst = jsonstr.Append(dst, in.ApplyErr)
	dst = append(dst, `,"Exit":`...)
	dst = strconv.AppendInt(dst, int64(in.Exit), 10)
	dst = append(dst, `,"CrashMsg":`...)
	dst = jsonstr.Append(dst, in.CrashMsg)
	dst = append(dst, `,"Violations":`...)
	if in.Violations == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range in.Violations {
			v := &in.Violations[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Kind":`...)
			dst = strconv.AppendInt(dst, int64(v.Kind), 10)
			dst = append(dst, `,"Point":`...)
			dst = jsonstr.Append(dst, v.Point)
			dst = append(dst, `,"Object":`...)
			dst = jsonstr.Append(dst, v.Object)
			dst = append(dst, `,"Detail":`...)
			dst = jsonstr.Append(dst, v.Detail)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendStrings appends a string slice: null when nil.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonstr.Append(dst, s)
	}
	return append(dst, ']')
}

// decoder reads the store's canonical bytes: the cursor primitives of
// jsonstr.Decoder and this package's readers of an entry, a campaign
// result and a shard artifact. The strings it returns are copies, so
// a decoded result holds no reference to the input.
type decoder struct {
	jsonstr.Decoder
	// strs holds strings already copied out, so one entry's many
	// repeats of a site, point, path, op or working directory share
	// one copy. A slot holds the last string that hashed to it.
	strs [1 << strsLog]string
}

const strsLog = 6

// error returns the first error, or nil.
func (d *decoder) error() error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// str reads a string. One without escapes, the common case, is
// interned.
func (d *decoder) str() string {
	body, escaped := d.RawStr()
	if escaped {
		return jsonstr.Unescape(body)
	}
	return d.intern(body)
}

// intern returns the string b spells: an earlier copy when strs holds
// one, else a new copy that strs then keeps.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	// Fibonacci hashing of the length and three of the bytes: the
	// product's top bits index the slot.
	h := uint32(len(b))<<24 ^ uint32(b[0])<<16 ^ uint32(b[len(b)/2])<<8 ^ uint32(b[len(b)-1])
	slot := &d.strs[h*0x9e3779b1>>(32-strsLog)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// list reports whether an array that is null when nil follows, and
// consumes its "[" if so.
func (d *decoder) list() bool {
	if d.Peek("null") {
		return false
	}
	d.Expect("[")
	return true
}

// next reports whether element n of an array whose "[" is consumed
// follows, consuming the "," before it, or else consumes the "]". The
// readers loop on it rather than take an element reader as a function
// value: a decoder passed to one escapes to the heap.
func (d *decoder) next(n int) bool {
	if n == 0 {
		return !d.Peek("]")
	}
	if d.Peek(",") {
		return true
	}
	d.Expect("]")
	return false
}

// strList reads an array of strings that is null when nil. An empty array
// is an empty slice, not nil, as encoding/json decodes it.
func (d *decoder) strList() []string {
	if !d.list() {
		return nil
	}
	out := []string{}
	for n := 0; d.next(n); n++ {
		out = append(out, d.str())
	}
	return out
}

// campaign reads the canonical campaign encoding into the result it
// encodes, whose CleanTrace is nil.
func (d *decoder) campaign() *inject.Result {
	r := &inject.Result{}
	d.Expect(`{"campaign":`)
	r.Campaign = d.str()
	d.Expect(`,"total_sites":`)
	r.TotalSites = d.strList()
	if d.Peek(`,"perturbed_sites":`) {
		r.PerturbedSites = d.strList()
		d.NonEmpty(len(r.PerturbedSites) > 0)
	}
	d.Expect(`,"injections":`)
	if d.list() {
		r.Injections = []inject.Injection{}
		for n := 0; d.next(n); n++ {
			r.Injections = append(r.Injections, d.injection())
		}
	}
	d.Expect("}")
	return r
}

// injection reads an inject.Injection.
func (d *decoder) injection() inject.Injection {
	var in inject.Injection
	d.Expect(`{"Point":`)
	in.Point = d.str()
	d.Expect(`,"Site":`)
	in.Site = d.str()
	d.Expect(`,"Kind":`)
	in.Kind = interpose.ObjectKind(d.Int())
	d.Expect(`,"FaultID":`)
	in.FaultID = d.str()
	d.Expect(`,"Class":`)
	in.Class = eai.Class(d.Int())
	d.Expect(`,"Attr":`)
	in.Attr = eai.Attr(d.Int())
	d.Expect(`,"Sem":`)
	in.Sem = eai.Semantic(d.Int())
	d.Expect(`,"Applied":`)
	in.Applied = d.Bool()
	d.Expect(`,"ApplyErr":`)
	in.ApplyErr = d.str()
	d.Expect(`,"Exit":`)
	in.Exit = d.Int()
	d.Expect(`,"CrashMsg":`)
	in.CrashMsg = d.str()
	d.Expect(`,"Violations":`)
	if d.list() {
		in.Violations = []policy.Violation{}
		for n := 0; d.next(n); n++ {
			in.Violations = append(in.Violations, d.violation())
		}
	}
	d.Expect("}")
	return in
}

// violation reads a policy.Violation.
func (d *decoder) violation() policy.Violation {
	var v policy.Violation
	d.Expect(`{"Kind":`)
	v.Kind = policy.Kind(d.Int())
	d.Expect(`,"Point":`)
	v.Point = d.str()
	d.Expect(`,"Object":`)
	v.Object = d.str()
	d.Expect(`,"Detail":`)
	v.Detail = d.str()
	d.Expect("}")
	return v
}
