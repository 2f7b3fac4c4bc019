package findings

import (
	"bytes"
	"testing"
)

// seedCorpus adds one valid encoded report plus hostile shapes.
func seedCorpus(f *testing.F) {
	b := NewBuilder()
	b.Add("lpr", "vulnerable", sigDirect(), Trace{Point: "p1", Fault: "f1", Object: "/x", Detail: "d"})
	b.Add("untar", "", sigIndirect(), Trace{Point: "p2", Fault: "f2"})
	enc, err := b.Report().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`{"schema":"eptest-findings/1","findings":[]}`))
	f.Add([]byte(`{"schema":"eptest-findings/1","findings":[{"id":"EPT-0000000000000000","traces":null}]}`))
	f.Add([]byte(`{"schema":"bogus"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
}

// FuzzDecodeFindings: Decode never panics, and anything it accepts
// round-trips through the canonical encoding byte-identically.
func FuzzDecodeFindings(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted report failed to encode: %v", err)
		}
		r2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding did not decode: %v", err)
		}
		enc2, err := r2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

// FuzzDiff: diffing never panics, a report diffed against itself is
// drift-free, and delta counts always reconcile with the finding
// counts.
func FuzzDiff(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		if d := DiffReports(r, r); !d.Empty() {
			t.Fatalf("self-diff drifted: %+v", d)
		}
		empty := &Report{Schema: SchemaVersion}
		d := DiffReports(empty, r)
		// Every finding on the new side is new or a duplicate-ID merge;
		// new+unchanged+changed never exceeds the new-side count.
		if d.Count(ClassNew)+d.Count(ClassChanged)+d.Unchanged > d.NewCount {
			t.Fatalf("delta counts exceed findings: %+v", d)
		}
		if d.Count(ClassFixed) != 0 {
			t.Fatalf("diff against empty old side reported fixed findings: %+v", d)
		}
	})
}

// FuzzEncodeReport holds the hand-written encoder to json.MarshalIndent
// on hostile strings — invalid UTF-8, <, > and &, U+2028 and U+2029,
// control bytes — nil against empty Findings and Traces, and empty
// omitempty members: the bytes are equal, in a buffer of exactly their
// size.
func FuzzEncodeReport(f *testing.F) {
	f.Add("eptest-findings/1", "lpr", "vulnerable", "p#1", "", "<a>&b\xe2\x80\xa8\xe2\x80\xa9", uint8(0))
	f.Add("", "", "", "", "", "", uint8(0xff))
	f.Add("\x00\x1f\x7f\"\\", "\xff\xfe", "\xe2\x80", "\t\n\r\b\f", "é\u2028", "\U0001f600", uint8(0x5a))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g string, shape uint8) {
		pick := func(bit uint, s string) string {
			if shape&(1<<bit) != 0 {
				return ""
			}
			return s
		}
		traces := []Trace{
			{Point: a, Fault: b, Object: pick(0, c), Detail: pick(1, d)},
			{Point: g, Fault: "", Object: pick(2, e), Detail: pick(3, a)},
		}
		findings := []Finding{{
			ID: b, App: a, Variant: pick(4, c), Rule: d, Severity: e, Signature: g,
			Taxonomy: Taxonomy{Class: a, Origin: pick(5, b), Entity: pick(6, c), Attr: pick(7, d), Verdict: e, Slug: g},
			Traces:   traces,
		}, {App: g, Traces: []Trace{}}, {Variant: a}}
		for _, r := range []*Report{
			{Schema: a},
			{Schema: b, Findings: []Finding{}},
			{Schema: c, Findings: findings},
			{Schema: d, Findings: findings[1:]},
		} {
			got, err := r.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceEncode(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode diverges from json.MarshalIndent at byte %d:\n%s\nvs\n%s", firstDiff(got, want), got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("Encode sized its buffer %d for %d bytes", cap(got), len(got))
			}
		}
	})
}
