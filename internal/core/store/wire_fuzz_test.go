package store

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/interpose"
)

// fuzzFP is the fingerprint the fuzz targets frame entries under.
var fuzzFP = strings.Repeat("f", 64)

// FuzzDecodeResult holds the hand-written decoder to the encoding/json
// reference on arbitrary bytes. Whatever it accepts, the reference
// accepts too, decoding to a deeply equal result, and re-encoding
// reproduces the input exactly: accepted bytes are canonical. Whatever
// the reference accepts and re-encodes to the same bytes, it accepts.
// The same bytes framed as the result of a canonical cache entry
// decode exactly when they decode alone, and to the reference's entry.
func FuzzDecodeResult(f *testing.F) {
	seed := &inject.Result{
		Campaign:       "fuzz",
		TotalSites:     []string{"a:open", "a:read"},
		PerturbedSites: []string{"a:open"},
		Injections: []inject.Injection{
			{
				Point: "a:open#1", Site: "a:open", FaultID: "direct/file-system/existence",
				Applied: true, ApplyErr: "ok <&> \xe2\x80\xa8", Exit: -3, CrashMsg: "boom\x00",
				Violations: []policy.Violation{{Kind: policy.KindIntegrity, Object: "/x", Detail: "é\t\"\\"}},
			},
		},
	}
	if b, err := EncodeResult(seed); err == nil {
		f.Add(b)
	}
	if b, err := EncodeResult(&inject.Result{TotalSites: []string{}, Injections: []inject.Injection{}}); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"campaign":"x","injections":null}`))
	f.Add([]byte(`{"campaign":"x","total_sites":null,"injections":null}`))
	// The version-1 encoding, which carried the clean trace.
	f.Add([]byte(`{"campaign":"x","clean_trace":[],"total_sites":null,"injections":null}`))
	f.Add([]byte(`{"campaign":1}`))
	f.Add([]byte(`[`))
	f.Add([]byte(``))
	f.Add([]byte(`{"campaign":"x","clean_trace":[{"result":{"err":"boom"}}],"total_sites":[],"injections":[]}`))

	prefix := `{"store":"` + FormatVersion + `","engine":"` + inject.EngineVersion + `","fingerprint":"` + fuzzFP + `","label":"fuzz","result":`
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		ref, refErr := referenceDecodeResult(data)
		switch {
		case err == nil:
			if refErr != nil {
				t.Fatalf("accepted input the reference rejects: %v", refErr)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("decode differs from the reference:\n got %#v\nwant %#v", res, ref)
			}
			if b, _ := EncodeResult(res); !bytes.Equal(b, data) {
				t.Fatalf("accepted input is not its own re-encoding:\n got %s\nwant %s", b, data)
			}
		case refErr == nil:
			if b, _ := referenceEncodeResult(ref); bytes.Equal(b, data) {
				t.Fatalf("rejected canonical input: %v", err)
			}
		}

		e := append(append([]byte(prefix), data...), '}')
		got, entryErr := decodeEntry(e, fuzzFP)
		if (entryErr == nil) != (err == nil) {
			t.Fatalf("entry decode error %v, result decode error %v", entryErr, err)
		}
		if entryErr == nil {
			if want, ok := referenceDecodeEntry(e, fuzzFP); !ok || !reflect.DeepEqual(got, want) {
				t.Fatal("entry decode differs from the reference")
			}
		}
	})
}

// FuzzEncodeResult builds results from fuzzed strings and integers —
// invalid UTF-8, control characters, <, > and &, U+2028, the record
// separator 0x1E, negative numbers, nil and empty slices, a clean trace
// or none — and holds the hand-written encoder to json.Marshal byte for
// byte, for the bare result and for the cache entry. The output never
// holds 0x1E, which the segment scanner resynchronises on, and a
// result whose strings are valid UTF-8 decodes back to bytes that
// re-encode identically.
func FuzzEncodeResult(f *testing.F) {
	f.Add("a:open", "/etc/passwd", 0, 1, uint16(0))
	f.Add("<a>&b\xe2\x80\xa8\xe2\x80\xa9", "\x1e\x00\x7f\xff\xfe", -1, -1<<63, uint16(0xffff))
	f.Add("\b\f\n\r\t\"\\", "\xed\xa0\x80\xef\xbf\xbd", 1<<62, 65535, uint16(0x5555))
	f.Add("", "", 0, 0, uint16(0xaaaa))
	f.Fuzz(func(t *testing.T, s, u string, n, m int, shape uint16) {
		bit := func(i uint) bool { return shape>>i&1 == 1 }
		in := inject.Injection{
			Point: s, Site: u, Kind: interpose.ObjectKind(m), FaultID: u,
			Class: eai.Class(n), Attr: eai.Attr(m), Sem: eai.Semantic(-n),
			Applied: bit(5), ApplyErr: s, Exit: n, CrashMsg: u,
			Violations: []policy.Violation{{Kind: policy.Kind(m), Point: s, Object: u, Detail: s + u}, {}},
		}
		if bit(6) {
			in.Violations = nil
		} else if bit(7) {
			in.Violations = []policy.Violation{}
		}
		r := &inject.Result{
			Campaign:       s,
			TotalSites:     []string{s, u},
			PerturbedSites: []string{u},
			Injections:     []inject.Injection{in, {}},
		}
		if bit(8) {
			// The encoding leaves the clean trace out, so the bytes
			// must still equal the reference's, which has no such member.
			r.CleanTrace = []interpose.Event{{Call: interpose.Call{Site: s, Path: u}}}
		}
		if bit(9) {
			r.TotalSites = nil
		} else if bit(10) {
			r.TotalSites = []string{}
		}
		if bit(11) {
			r.PerturbedSites = nil
		} else if bit(12) {
			r.PerturbedSites = []string{}
		}
		if bit(13) {
			r.Injections = nil
		} else if bit(14) {
			r.Injections = []inject.Injection{}
		}

		got, _ := EncodeResult(r)
		want, err := referenceEncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result bytes diverge from json.Marshal:\n got %s\nwant %s", got, want)
		}
		gotEntry := appendEntry(nil, fuzzFP, u, r)
		wantEntry, err := referenceEncodeEntry(fuzzFP, u, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEntry, wantEntry) {
			t.Fatalf("entry bytes diverge from json.Marshal:\n got %s\nwant %s", gotEntry, wantEntry)
		}
		if bytes.IndexByte(gotEntry, recordSep) >= 0 {
			t.Fatalf("entry holds the record separator: %q", gotEntry)
		}

		back, err := DecodeResult(got)
		if err != nil {
			if utf8.ValidString(s) && utf8.ValidString(u) {
				t.Fatalf("valid UTF-8 result does not decode: %v", err)
			}
			return
		}
		if again, _ := EncodeResult(back); !bytes.Equal(again, got) {
			t.Fatal("decoded result does not re-encode to the same bytes")
		}
	})
}
