package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// TestAppendMatchesMarshal holds Append to json.Marshal, Len to
// Append's output and Decoder.Str to Append's inverse, on every byte
// alone and on the strings Marshal escapes specially: Str reads back
// every valid UTF-8 string and rejects the \ufffd that stands for
// invalid UTF-8. The encoders and decoders that use the package fuzz
// it on whole documents.
func TestAppendMatchesMarshal(t *testing.T) {
	cases := []string{"", "plain", `"\`, "<a>&b", "\u2028\u2029", "\xff\xe2\x80", "\u00e9\U0001f600", "\b\f\n\r\t\x00\x1f\x7f"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := Append([]byte("x"), s)
		if !bytes.Equal(got[1:], want) {
			t.Errorf("Append(%q) = %s, want %s", s, got[1:], want)
		}
		if Len(s) != len(want) {
			t.Errorf("Len(%q) = %d, want %d", s, Len(s), len(want))
		}
		d := NewDecoder(want)
		back := d.Str()
		d.End()
		if utf8.ValidString(s) && (d.Err() != nil || back != s) {
			t.Errorf("Str(%s) = %q, %v; want %q", want, back, d.Err(), s)
		} else if !utf8.ValidString(s) && d.Err() == nil {
			t.Errorf("Str(%s) accepted the escape of invalid UTF-8", want)
		}
	}
}
