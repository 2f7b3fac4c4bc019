package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAppendMatchesMarshal holds Append to json.Marshal and Len to
// Append's output, on every byte alone and on the strings Marshal
// escapes specially. The encoders that use the package fuzz it on
// whole documents.
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
	}
}
