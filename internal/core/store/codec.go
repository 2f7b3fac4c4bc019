package store

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/jsonstr"
	"repro/internal/core/policy"
	"repro/internal/interpose"
)

// The store's canonical bytes, written and read by hand.
//
// A cache entry, and the campaign result inside it, has exactly one
// encoding: the bytes encoding/json's Marshal produces for the entry
// envelope around wireCampaign. Members come in declaration order with
// no whitespace, omitempty members are left out when empty, nil slices
// are null and empty ones [], []byte is standard base64, and strings
// are escaped as Marshal escapes them: the quote, the backslash,
// control characters, <, > and &, U+2028 and U+2029, and each byte of
// invalid UTF-8 as \ufffd. The append functions below write those
// bytes without reflection.
//
// The decoder reads them back and accepts nothing else. Input the
// encoder would not reproduce byte for byte — whitespace, reordered or
// unknown members, a needless escape, an empty omitempty member, \ufffd
// (it decodes to a rune the encoder writes raw) — is an error, so an
// accepted body is its own re-encoding. The encoding/json path is kept
// as the reference in reference_test.go, and the fuzz targets hold the
// two to each other.

// EncodeResult renders a campaign result in the store's canonical wire
// form, the "result" member of a cache entry. Equal results produce
// equal bytes, which is what the replay- and merge-determinism tests
// compare. The bytes are one allocation of exactly their size; the
// error is always nil.
func EncodeResult(r *inject.Result) ([]byte, error) {
	return encode(func(dst []byte) []byte { return appendCampaign(dst, r) }), nil
}

// DecodeResult parses the canonical wire form back into a campaign
// result, rejecting any input EncodeResult would not have produced.
// Trace errors come back as opaque errors carrying the original
// message; every field a report or merge consumes round-trips exactly.
func DecodeResult(b []byte) (*inject.Result, error) {
	d := decoder{b: b}
	r := d.campaign()
	d.end()
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// decodeEntry decodes a cache entry that may replay under fp. It
// checks the envelope as it reaches it: a foreign format or engine
// version is a *versionError, and a different fingerprint or a null
// result is an error, before any of the result is decoded.
func decodeEntry(b []byte, fp string) (*inject.Result, error) {
	d := decoder{b: b}
	d.expect(`{"store":`)
	st := d.str()
	d.expect(`,"engine":`)
	eng := d.str()
	if d.err == nil && (st != FormatVersion || eng != inject.EngineVersion) {
		return nil, &versionError{store: st, engine: eng}
	}
	d.expect(`,"fingerprint":`)
	if got := d.str(); d.err == nil && got != fp {
		return nil, fmt.Errorf("store: entry is for fingerprint %q, not %s", got, fp)
	}
	d.expect(`,"label":`)
	d.str()
	d.expect(`,"result":`)
	r := d.campaign()
	d.expect("}")
	d.end()
	if d.err != nil {
		return nil, d.err
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

// appendCampaign appends r as a wireCampaign. The clean trace is never
// null: the reference's toWire always allocates it.
func appendCampaign(dst []byte, r *inject.Result) []byte {
	dst = append(dst, `{"campaign":`...)
	dst = jsonstr.Append(dst, r.Campaign)
	dst = append(dst, `,"clean_trace":[`...)
	for i := range r.CleanTrace {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEvent(dst, &r.CleanTrace[i])
	}
	dst = append(dst, `],"total_sites":`...)
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

// appendEvent appends ev as a wireEvent.
func appendEvent(dst []byte, ev *interpose.Event) []byte {
	c := &ev.Call
	dst = append(dst, `{"call":{"Seq":`...)
	dst = strconv.AppendInt(dst, int64(c.Seq), 10)
	dst = append(dst, `,"Site":`...)
	dst = jsonstr.Append(dst, c.Site)
	dst = append(dst, `,"Occur":`...)
	dst = strconv.AppendInt(dst, int64(c.Occur), 10)
	dst = append(dst, `,"Op":`...)
	dst = jsonstr.Append(dst, string(c.Op))
	dst = append(dst, `,"Kind":`...)
	dst = strconv.AppendInt(dst, int64(c.Kind), 10)
	dst = append(dst, `,"Path":`...)
	dst = jsonstr.Append(dst, c.Path)
	dst = append(dst, `,"Path2":`...)
	dst = jsonstr.Append(dst, c.Path2)
	dst = append(dst, `,"Data":`...)
	dst = appendBytes(dst, c.Data)
	dst = append(dst, `,"Mode":`...)
	dst = strconv.AppendUint(dst, uint64(c.Mode), 10)
	dst = append(dst, `,"Flags":`...)
	dst = strconv.AppendInt(dst, int64(c.Flags), 10)
	dst = append(dst, `,"UID":`...)
	dst = strconv.AppendInt(dst, int64(c.UID), 10)
	dst = append(dst, `,"EUID":`...)
	dst = strconv.AppendInt(dst, int64(c.EUID), 10)
	dst = append(dst, `,"GID":`...)
	dst = strconv.AppendInt(dst, int64(c.GID), 10)
	dst = append(dst, `,"EGID":`...)
	dst = strconv.AppendInt(dst, int64(c.EGID), 10)
	dst = append(dst, `,"Cwd":`...)
	dst = jsonstr.Append(dst, c.Cwd)

	// Every member of the call result is omitempty.
	res := &ev.Result
	dst = append(dst, `},"result":`...)
	sep := byte('{')
	if len(res.Data) > 0 {
		dst = append(dst, sep)
		dst = append(dst, `"data":`...)
		dst = appendBytes(dst, res.Data)
		sep = ','
	}
	if res.Str != "" {
		dst = append(dst, sep)
		dst = append(dst, `"str":`...)
		dst = jsonstr.Append(dst, res.Str)
		sep = ','
	}
	if res.N != 0 {
		dst = append(dst, sep)
		dst = append(dst, `"n":`...)
		dst = strconv.AppendInt(dst, int64(res.N), 10)
		sep = ','
	}
	if res.Flag {
		dst = append(dst, sep)
		dst = append(dst, `"flag":true`...)
		sep = ','
	}
	if res.Err != nil {
		if msg := res.Err.Error(); msg != "" {
			dst = append(dst, sep)
			dst = append(dst, `"err":`...)
			dst = jsonstr.Append(dst, msg)
			sep = ','
		}
	}
	if sep == '{' {
		dst = append(dst, '{')
	}
	dst = append(dst, '}')

	if ev.ResolvedPath != "" {
		dst = append(dst, `,"resolved_path":`...)
		dst = jsonstr.Append(dst, ev.ResolvedPath)
	}
	if ev.Mutated {
		dst = append(dst, `,"mutated":true`...)
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

// appendBytes appends a byte slice as a base64 string: null when nil.
func appendBytes(dst []byte, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

// decoder reads canonical bytes. The strings it returns are copies, so
// a decoded result holds no reference to the input. The first error
// sticks: every later read returns a zero value and consumes nothing,
// so loops over arrays end.
type decoder struct {
	b   []byte
	i   int
	err error
	// strs holds strings already copied out, so one entry's many
	// repeats of a site, point, path, op or working directory share
	// one copy. A slot holds the last string that hashed to it.
	strs [1 << strsLog]string
}

const strsLog = 6

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

// fail records that the input at the cursor is not what the canonical
// encoding has there.
func (d *decoder) fail(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: not a canonical entry: want %s at byte %d", want, d.i)
	}
}

// hasPrefix reports whether b begins with s.
func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// peek consumes lit if the input continues with it.
func (d *decoder) peek(lit string) bool {
	if d.err != nil || !hasPrefix(d.b[d.i:], lit) {
		return false
	}
	d.i += len(lit)
	return true
}

// expect consumes lit, which the input must continue with.
func (d *decoder) expect(lit string) {
	if !d.peek(lit) {
		d.fail(strconv.Quote(lit))
	}
}

// end checks that the input is used up.
func (d *decoder) end() {
	if d.err == nil && d.i != len(d.b) {
		d.fail("end of input")
	}
}

// member consumes the key of an omitempty member of an object, `"name":`
// — preceded by a comma when *n members came before it — if the input
// continues with it, and counts it in *n.
func (d *decoder) member(key string, n *int) bool {
	if d.err != nil {
		return false
	}
	i := d.i
	if *n > 0 {
		if i >= len(d.b) || d.b[i] != ',' {
			return false
		}
		i++
	}
	if !hasPrefix(d.b[i:], key) {
		return false
	}
	d.i = i + len(key)
	*n++
	return true
}

// nonEmpty fails unless ok: an omitempty member that is present must
// not hold its type's zero value.
func (d *decoder) nonEmpty(ok bool) {
	if !ok {
		d.fail("a non-empty value")
	}
}

// int reads an integer in range for an int: an optional minus sign,
// then digits without a leading zero, and never -0.
func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	i := d.i
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	v, end, ok := d.digits(i)
	limit := uint64(1) << (strconv.IntSize - 1) // the magnitude of the most negative int
	if !ok || v > limit || (neg && v == 0) || (!neg && v == limit) {
		d.fail("an integer")
		return 0
	}
	d.i = end
	if neg {
		return int(-v)
	}
	return int(v)
}

// uint16 reads an unsigned integer below 1<<16.
func (d *decoder) uint16() uint16 {
	if d.err != nil {
		return 0
	}
	v, end, ok := d.digits(d.i)
	if !ok || v > 0xffff {
		d.fail("an unsigned 16-bit integer")
		return 0
	}
	d.i = end
	return uint16(v)
}

// digits reads the run of decimal digits at i, which must be
// canonical: at least one digit, no leading zero, and at most 19, the
// most an int64 needs, so the value cannot overflow.
func (d *decoder) digits(i int) (v uint64, end int, ok bool) {
	b, start := d.b, i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		if i-start == 19 {
			return 0, i, false
		}
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	return v, i, i > start && (b[start] != '0' || i == start+1)
}

// bool reads true or false.
func (d *decoder) bool() bool {
	if d.peek("true") {
		return true
	}
	d.expect("false")
	return false
}

// str reads a string. The common case, printable ASCII without
// escapes, is one scan and one copy.
func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	b, i := d.b, d.i
	if i >= len(b) || b[i] != '"' {
		d.fail("a string")
		return ""
	}
	i++
	start := i
	for i < len(b) && jsonstr.Plain(b[i]) {
		i++
	}
	if i < len(b) && b[i] == '"' {
		d.i = i + 1
		return d.intern(b[start:i])
	}
	escaped := false
	for i < len(b) {
		c := b[i]
		switch {
		case jsonstr.Plain(c):
			i++
		case c == '"':
			d.i = i + 1
			if escaped {
				return unescape(b[start:i])
			}
			return d.intern(b[start:i])
		case c == '\\':
			n := escapeLen(b[i:])
			if n == 0 {
				d.i = i
				d.fail("an escape the encoder writes")
				return ""
			}
			escaped = true
			i += n
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if (r == utf8.RuneError && size == 1) || r == jsonstr.LineSep || r == jsonstr.ParaSep {
				d.i = i
				d.fail("UTF-8 the encoder writes raw")
				return ""
			}
			i += size
		default:
			d.i = i
			d.fail("an escaped control or HTML character")
			return ""
		}
	}
	d.i = i
	d.fail("a closing quote")
	return ""
}

// escapeLen returns the length of the escape sequence that starts b if
// it is one jsonstr.Append writes, and 0 otherwise.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		r, ok := escapedRune(b)
		if !ok {
			return 0
		}
		switch {
		case r < 0x20:
			// The five with a short escape are written short.
			if r == '\b' || r == '\f' || r == '\n' || r == '\r' || r == '\t' {
				return 0
			}
		case r == '<', r == '>', r == '&', r == jsonstr.LineSep, r == jsonstr.ParaSep:
		default:
			return 0
		}
		return 6
	}
	return 0
}

// escapedRune decodes the four lowercase hex digits of a \u escape.
func escapedRune(b []byte) (rune, bool) {
	if len(b) < 6 {
		return 0, false
	}
	var r rune
	for _, c := range b[2:6] {
		v, ok := hexDigit(c)
		if !ok {
			return 0, false
		}
		r = r<<4 | rune(v)
	}
	return r, true
}

// unescape resolves the escapes of a string body str has validated.
func unescape(b []byte) string {
	var sb strings.Builder
	sb.Grow(len(b))
	for i := 0; i < len(b); {
		c := b[i]
		if c != '\\' {
			sb.WriteByte(c)
			i++
			continue
		}
		switch b[i+1] {
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r, _ := escapedRune(b[i:])
			sb.WriteRune(r)
			i += 6
			continue
		default: // the quote or the backslash
			sb.WriteByte(b[i+1])
		}
		i += 2
	}
	return sb.String()
}

// strictBase64 rejects base64 whose padding bits are not zero, which
// the encoder never writes.
var strictBase64 = base64.StdEncoding.Strict()

// bytes reads a byte slice: null, or a base64 string.
func (d *decoder) bytes() []byte {
	if d.peek("null") || d.err != nil {
		return nil
	}
	b, i := d.b, d.i
	if i >= len(b) || b[i] != '"' {
		d.fail("a base64 string")
		return nil
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		d.fail("a base64 string")
		return nil
	}
	src := b[i+1 : i+1+n]
	out := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	m, err := strictBase64.Decode(out, src)
	// The base64 decoder skips CR and LF; the encoded length of what
	// it decoded catches them.
	if err != nil || base64.StdEncoding.EncodedLen(m) != len(src) {
		d.fail("canonical base64")
		return nil
	}
	d.i = i + 1 + n + 1
	return out[:m]
}

// elems reads the elements of an array whose "[" is consumed, through
// its "]". An empty array is an empty slice, not nil, as encoding/json
// decodes it.
func elems[T any](d *decoder, elem func(*decoder) T) []T {
	out := []T{}
	if d.peek("]") {
		return out
	}
	for {
		out = append(out, elem(d))
		if !d.peek(",") {
			break
		}
	}
	d.expect("]")
	return out
}

// list reads an array that is null when nil.
func list[T any](d *decoder, elem func(*decoder) T) []T {
	if d.peek("null") {
		return nil
	}
	d.expect("[")
	return elems(d, elem)
}

// campaign reads a wireCampaign into the result it encodes.
func (d *decoder) campaign() *inject.Result {
	r := &inject.Result{}
	d.expect(`{"campaign":`)
	r.Campaign = d.str()
	d.expect(`,"clean_trace":[`)
	r.CleanTrace = elems(d, (*decoder).event)
	d.expect(`,"total_sites":`)
	r.TotalSites = list(d, (*decoder).str)
	if d.peek(`,"perturbed_sites":`) {
		r.PerturbedSites = list(d, (*decoder).str)
		d.nonEmpty(len(r.PerturbedSites) > 0)
	}
	d.expect(`,"injections":`)
	r.Injections = list(d, (*decoder).injection)
	d.expect("}")
	return r
}

// event reads a wireEvent into the trace event it encodes.
func (d *decoder) event() interpose.Event {
	var ev interpose.Event
	c := &ev.Call
	d.expect(`{"call":{"Seq":`)
	c.Seq = d.int()
	d.expect(`,"Site":`)
	c.Site = d.str()
	d.expect(`,"Occur":`)
	c.Occur = d.int()
	d.expect(`,"Op":`)
	c.Op = interpose.Op(d.str())
	d.expect(`,"Kind":`)
	c.Kind = interpose.ObjectKind(d.int())
	d.expect(`,"Path":`)
	c.Path = d.str()
	d.expect(`,"Path2":`)
	c.Path2 = d.str()
	d.expect(`,"Data":`)
	c.Data = d.bytes()
	d.expect(`,"Mode":`)
	c.Mode = d.uint16()
	d.expect(`,"Flags":`)
	c.Flags = d.int()
	d.expect(`,"UID":`)
	c.UID = d.int()
	d.expect(`,"EUID":`)
	c.EUID = d.int()
	d.expect(`,"GID":`)
	c.GID = d.int()
	d.expect(`,"EGID":`)
	c.EGID = d.int()
	d.expect(`,"Cwd":`)
	c.Cwd = d.str()

	res := &ev.Result
	d.expect(`},"result":{`)
	n := 0
	if d.member(`"data":`, &n) {
		res.Data = d.bytes()
		d.nonEmpty(len(res.Data) > 0)
	}
	if d.member(`"str":`, &n) {
		res.Str = d.str()
		d.nonEmpty(res.Str != "")
	}
	if d.member(`"n":`, &n) {
		res.N = d.int()
		d.nonEmpty(res.N != 0)
	}
	if d.member(`"flag":`, &n) {
		d.expect("true")
		res.Flag = true
	}
	if d.member(`"err":`, &n) {
		msg := d.str()
		d.nonEmpty(msg != "")
		res.Err = errors.New(msg)
	}
	d.expect("}")

	if d.peek(`,"resolved_path":`) {
		ev.ResolvedPath = d.str()
		d.nonEmpty(ev.ResolvedPath != "")
	}
	if d.peek(`,"mutated":`) {
		d.expect("true")
		ev.Mutated = true
	}
	d.expect("}")
	return ev
}

// injection reads an inject.Injection.
func (d *decoder) injection() inject.Injection {
	var in inject.Injection
	d.expect(`{"Point":`)
	in.Point = d.str()
	d.expect(`,"Site":`)
	in.Site = d.str()
	d.expect(`,"Kind":`)
	in.Kind = interpose.ObjectKind(d.int())
	d.expect(`,"FaultID":`)
	in.FaultID = d.str()
	d.expect(`,"Class":`)
	in.Class = eai.Class(d.int())
	d.expect(`,"Attr":`)
	in.Attr = eai.Attr(d.int())
	d.expect(`,"Sem":`)
	in.Sem = eai.Semantic(d.int())
	d.expect(`,"Applied":`)
	in.Applied = d.bool()
	d.expect(`,"ApplyErr":`)
	in.ApplyErr = d.str()
	d.expect(`,"Exit":`)
	in.Exit = d.int()
	d.expect(`,"CrashMsg":`)
	in.CrashMsg = d.str()
	d.expect(`,"Violations":`)
	in.Violations = list(d, (*decoder).violation)
	d.expect("}")
	return in
}

// violation reads a policy.Violation.
func (d *decoder) violation() policy.Violation {
	var v policy.Violation
	d.expect(`{"Kind":`)
	v.Kind = policy.Kind(d.int())
	d.expect(`,"Point":`)
	v.Point = d.str()
	d.expect(`,"Object":`)
	v.Object = d.str()
	d.expect(`,"Detail":`)
	v.Detail = d.str()
	d.expect("}")
	return v
}
