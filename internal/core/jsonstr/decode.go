package jsonstr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Decoder is a cursor over canonical bytes: JSON exactly as
// encoding/json's Marshal writes it, strings escaped as Append escapes
// them. It is the inverse of Append and of the hand-written encoders
// built on it, and it accepts nothing else. Input such an encoder
// would not reproduce byte for byte — whitespace, a needless escape,
// an uppercase hex digit, \ufffd (it decodes to a rune Append writes
// raw), a leading zero — is an error, so accepted bytes are their own
// re-encoding. A reader of one format spells its members out as
// literals with Expect and Peek and reads the values between them.
//
// The first error sticks: every later read returns a zero value and
// consumes nothing, so loops over arrays end, and the caller checks
// Err once at the end.
type Decoder struct {
	b   []byte
	i   int
	err error
}

// NewDecoder returns a decoder at the start of b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first error, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records that the input at the cursor is not what the canonical
// encoding has there: want names what it has.
func (d *Decoder) Fail(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("not canonical JSON: want %s at byte %d", want, d.i)
	}
}

// Rest returns the unread input, aliasing it; nil after an error.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.b[d.i:]
}

// hasPrefix reports whether b begins with s.
func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// Peek consumes lit if the input continues with it.
func (d *Decoder) Peek(lit string) bool {
	if d.err != nil || !hasPrefix(d.b[d.i:], lit) {
		return false
	}
	d.i += len(lit)
	return true
}

// Expect consumes lit, which the input must continue with.
func (d *Decoder) Expect(lit string) {
	if !d.Peek(lit) {
		d.Fail(strconv.Quote(lit))
	}
}

// End checks that the input is used up.
func (d *Decoder) End() {
	if d.err == nil && d.i != len(d.b) {
		d.Fail("end of input")
	}
}

// NonEmpty fails unless ok: an omitempty member that is present must
// not hold its type's zero value.
func (d *Decoder) NonEmpty(ok bool) {
	if !ok {
		d.Fail("a non-empty value")
	}
}

// OmitEmpty reads an omitempty string member whose key, leading comma
// included, is key: its value when the input continues with key, and
// "" when the member is left out. A present member must not be empty.
func (d *Decoder) OmitEmpty(key string) string {
	if !d.Peek(key) {
		return ""
	}
	s := d.Str()
	d.NonEmpty(s != "")
	return s
}

// Int reads an integer in range for an int: an optional minus sign,
// then digits without a leading zero, and never -0.
func (d *Decoder) Int() int {
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
		d.Fail("an integer")
		return 0
	}
	d.i = end
	if neg {
		return int(-v)
	}
	return int(v)
}

// digits reads the run of decimal digits at i, which must be
// canonical: at least one digit, no leading zero, and at most 19, the
// most an int64 needs, so the value cannot overflow.
func (d *Decoder) digits(i int) (v uint64, end int, ok bool) {
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

// Bool reads true or false.
func (d *Decoder) Bool() bool {
	if d.Peek("true") {
		return true
	}
	d.Expect("false")
	return false
}

// Str reads a string and returns a copy of its value.
func (d *Decoder) Str() string {
	body, escaped := d.RawStr()
	if escaped {
		return Unescape(body)
	}
	return string(body)
}

// RawStr reads a string and returns its body as the input spells it,
// aliasing the input, and whether the body holds escapes, which
// Unescape resolves. A reader that keeps many equal strings copies
// the body itself, once per distinct value. The common case, printable
// ASCII without escapes, is one scan.
func (d *Decoder) RawStr() (body []byte, escaped bool) {
	if d.err != nil {
		return nil, false
	}
	b, i := d.b, d.i
	if i >= len(b) || b[i] != '"' {
		d.Fail("a string")
		return nil, false
	}
	i++
	start := i
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		d.i = i + 1
		return b[start:i], false
	}
	for i < len(b) {
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			d.i = i + 1
			return b[start:i], escaped
		case c == '\\':
			n := escapeLen(b[i:])
			if n == 0 {
				d.i = i
				d.Fail("an escape the encoder writes")
				return nil, false
			}
			escaped = true
			i += n
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if (r == utf8.RuneError && size == 1) || r == lineSep || r == paraSep {
				d.i = i
				d.Fail("UTF-8 the encoder writes raw")
				return nil, false
			}
			i += size
		default:
			d.i = i
			d.Fail("an escaped control or HTML character")
			return nil, false
		}
	}
	d.i = i
	d.Fail("a closing quote")
	return nil, false
}

// escapeLen returns the length of the escape sequence that starts b if
// it is one Append writes, and 0 otherwise.
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
		case r == '<', r == '>', r == '&', r == lineSep, r == paraSep:
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
		var v byte
		switch {
		case '0' <= c && c <= '9':
			v = c - '0'
		case 'a' <= c && c <= 'f':
			v = c - 'a' + 10
		default:
			return 0, false
		}
		r = r<<4 | rune(v)
	}
	return r, true
}

// Unescape resolves the escapes of a string body RawStr returned.
func Unescape(b []byte) string {
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
