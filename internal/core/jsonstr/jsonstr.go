// Package jsonstr writes JSON strings exactly as encoding/json's
// Marshal writes them, for the hand-written encoders of the store's
// cache entries and shard artifacts, the coordinator's completions and
// the findings export: the quote, the backslash, control characters,
// <, > and &, U+2028 and U+2029 are escaped, and each byte of invalid
// UTF-8 becomes \ufffd. Its Decoder reads those encoders' bytes back
// and nothing else.
package jsonstr

import "unicode/utf8"

// lineSep and paraSep, U+2028 and U+2029, are valid raw in JSON but
// not in JavaScript, so encoding/json escapes them.
const (
	lineSep = 0x2028
	paraSep = 0x2029
)

// ascii holds the escaped form of each ASCII byte that needs one, and
// "" for the bytes a string carries as themselves: printable ASCII and
// DEL, except the quote, the backslash and the HTML-sensitive <, >
// and &.
var ascii = func() (t [utf8.RuneSelf]string) {
	const hexDigits = "0123456789abcdef"
	u00 := func(c int) string { return `\u00` + string(hexDigits[c>>4]) + string(hexDigits[c&0xf]) }
	for c := 0; c < 0x20; c++ {
		t[c] = u00(c)
	}
	for _, c := range "<>&" {
		t[c] = u00(int(c))
	}
	t['"'], t['\\'] = `\"`, `\\`
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	return t
}()

// plain marks the bytes ascii carries as themselves. No byte at or
// above 0x80 is plain; UTF-8 is checked rune by rune.
var plain = func() (t [256]bool) {
	for c := range ascii {
		t[c] = ascii[c] == ""
	}
	return t
}()

// escape returns the escaped form of the character that starts s, or
// "" when Append writes it as itself, and its size in s. It is the one
// statement of the escaping rules: Append and Len both read it.
func escape(s string) (string, int) {
	if c := s[0]; c < utf8.RuneSelf {
		return ascii[c], 1
	}
	r, size := utf8.DecodeRuneInString(s)
	switch {
	case r == utf8.RuneError && size == 1:
		return `\ufffd`, 1
	case r == lineSep:
		return `\u2028`, size
	case r == paraSep:
		return `\u2029`, size
	}
	return "", size
}

// Append appends s as a JSON string, escaped exactly as encoding/json
// escapes it with HTML escaping on, Marshal's default. Its output
// never holds a byte below 0x20.
func Append(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if plain[s[i]] {
			i++
			continue
		}
		esc, size := escape(s[i:])
		if esc != "" {
			dst = append(dst, s[start:i]...)
			dst = append(dst, esc...)
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Len returns the number of bytes Append appends for s, so an encoder
// can size its buffer before writing.
func Len(s string) int {
	n := len(s) + 2
	for i := 0; i < len(s); {
		if plain[s[i]] {
			i++
			continue
		}
		esc, size := escape(s[i:])
		if esc != "" {
			n += len(esc) - size
		}
		i += size
	}
	return n
}
