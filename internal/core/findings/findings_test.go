package findings

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
	"repro/internal/interpose"
	"repro/internal/vulndb"
)

func sigDirect() sched.Signature {
	return sched.Signature{
		Rule:  policy.KindIntegrity,
		Class: eai.ClassDirect,
		Attr:  eai.AttrSymlink,
		Kind:  interpose.KindFile,
	}
}

func sigIndirect() sched.Signature {
	return sched.Signature{
		Rule:  policy.KindUntrustedExec,
		Class: eai.ClassIndirect,
		Sem:   eai.SemPathList,
		Kind:  interpose.KindEnvVar,
	}
}

// The ID is a published stability contract: pin the exact derivation so
// an accidental change to the key material breaks loudly.
func TestComputeIDStable(t *testing.T) {
	id := ComputeID("lpr", "vulnerable", sigDirect().String())
	if !strings.HasPrefix(id, "EPT-") || len(id) != 4+16 {
		t.Fatalf("ID shape: %q", id)
	}
	if again := ComputeID("lpr", "vulnerable", sigDirect().String()); again != id {
		t.Fatalf("ID not deterministic: %q vs %q", id, again)
	}
	if other := ComputeID("lpr", "patched", sigDirect().String()); other == id {
		t.Fatalf("variant not part of the key: %q", other)
	}
	if other := ComputeID("untar", "vulnerable", sigDirect().String()); other == id {
		t.Fatalf("app not part of the key: %q", other)
	}
	if other := ComputeID("lpr", "vulnerable", sigIndirect().String()); other == id {
		t.Fatalf("signature not part of the key: %q", other)
	}
	const pinned = "EPT-4796ccd52cc06635"
	if id != pinned {
		t.Fatalf("ID derivation drifted: got %q, want %q — this breaks every stored findings file", id, pinned)
	}
}

func TestBuilderDedupAndOrder(t *testing.T) {
	b := NewBuilder()
	// Out-of-order adds across apps; canonical report order must not care.
	b.Add("untar", "vulnerable", sigDirect(), Trace{Point: "p2", Fault: "f1"})
	b.Add("lpr", "vulnerable", sigDirect(), Trace{Point: "p1", Fault: "f1"})
	b.Add("lpr", "vulnerable", sigDirect(), Trace{Point: "p3", Fault: "f2", Object: "/tmp/x"})
	b.Add("lpr", "vulnerable", sigIndirect(), Trace{Point: "p1", Fault: "f9"})
	r := b.Report()
	if len(r.Findings) != 3 || r.Schema != SchemaVersion {
		t.Fatalf("report: %+v", r)
	}
	if r.Findings[0].App != "lpr" || r.Findings[2].App != "untar" {
		t.Fatalf("not sorted by app: %v, %v", r.Findings[0].App, r.Findings[2].App)
	}
	var lpr *Finding
	for i := range r.Findings {
		if r.Findings[i].App == "lpr" && r.Findings[i].Signature == sigDirect().String() {
			lpr = &r.Findings[i]
		}
	}
	if lpr == nil || len(lpr.Traces) != 2 {
		t.Fatalf("lpr direct finding traces: %+v", lpr)
	}
	if lpr.Traces[0].Point != "p1" || lpr.Traces[1].Point != "p3" {
		t.Fatalf("trace order not add order: %+v", lpr.Traces)
	}
	if r.Traces() != 4 {
		t.Fatalf("Traces() = %d, want 4", r.Traces())
	}
}

func TestTaxonomyAndSeverity(t *testing.T) {
	b := NewBuilder()
	b.Add("lpr", "", sigDirect(), Trace{Point: "p"})
	b.Add("lpr", "", sigIndirect(), Trace{Point: "p"})
	r := b.Report()
	for i := range r.Findings {
		f := &r.Findings[i]
		switch f.Rule {
		case "integrity":
			if f.Severity != "high" {
				t.Errorf("integrity severity = %q", f.Severity)
			}
			if f.Taxonomy.Slug != "direct/file-system/symbolic-link" {
				t.Errorf("direct slug = %q", f.Taxonomy.Slug)
			}
			if f.Taxonomy.Verdict != "direct on file-system/symbolic-link" {
				t.Errorf("direct verdict = %q", f.Taxonomy.Verdict)
			}
			if f.Taxonomy.Origin != "" || f.Taxonomy.Entity != "file-system" {
				t.Errorf("direct taxonomy fields: %+v", f.Taxonomy)
			}
		case "untrusted-exec":
			if f.Severity != "critical" {
				t.Errorf("untrusted-exec severity = %q", f.Severity)
			}
			if f.Taxonomy.Slug != "indirect/environment-variable" {
				t.Errorf("indirect slug = %q", f.Taxonomy.Slug)
			}
			if f.Taxonomy.Verdict != "indirect via environment-variable" {
				t.Errorf("indirect verdict = %q", f.Taxonomy.Verdict)
			}
			if f.Taxonomy.Entity != "" || f.Taxonomy.Attr != "" {
				t.Errorf("indirect taxonomy fields: %+v", f.Taxonomy)
			}
		default:
			t.Errorf("unexpected rule %q", f.Rule)
		}
	}
}

func TestFromResultSkipsTolerated(t *testing.T) {
	res := &inject.Result{
		Campaign: "lpr",
		Injections: []inject.Injection{
			{Point: "a#0", FaultID: "f1", Applied: true, Class: eai.ClassDirect,
				Attr: eai.AttrSymlink, Kind: interpose.KindFile,
				Violations: []policy.Violation{{Kind: policy.KindIntegrity, Point: "a#0", Object: "/x"}}},
			{Point: "b#0", FaultID: "f2", Applied: true}, // tolerated: no violations
		},
	}
	r := FromResult("lpr", "vulnerable", res)
	if len(r.Findings) != 1 || len(r.Findings[0].Traces) != 1 {
		t.Fatalf("findings: %+v", r.Findings)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Add("lpr", "vulnerable", sigDirect(), Trace{Point: "p1", Fault: "f1", Object: "/x", Detail: "d"})
	b.Add("lpr", "vulnerable", sigIndirect(), Trace{Point: "p2", Fault: "f2"})
	r := b.Report()
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(enc, []byte("\n")) {
		t.Error("canonical encoding must end in newline")
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round-trip not byte-identical:\n%s\nvs\n%s", enc, enc2)
	}
}

func TestDecodeRejectsBadSchema(t *testing.T) {
	if _, err := Decode([]byte(`{"schema":"eptest-findings/999","findings":[]}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := Decode([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestWriteReadFile(t *testing.T) {
	b := NewBuilder()
	b.Add("lpr", "", sigDirect(), Trace{Point: "p"})
	r := b.Report()
	path := t.TempDir() + "/f.json"
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Findings) != 1 || got.Findings[0].ID != r.Findings[0].ID {
		t.Fatalf("read back: %+v", got.Findings)
	}
	if _, err := ReadFile(t.TempDir() + "/absent.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestInstrumentCounters(t *testing.T) {
	b := NewBuilder()
	b.Add("lpr", "vulnerable", sigDirect(), Trace{Point: "p1"})
	b.Add("lpr", "vulnerable", sigDirect(), Trace{Point: "p2"})
	b.Add("untar", "vulnerable", sigIndirect(), Trace{Point: "p1"})
	reg := obs.NewRegistry()
	Instrument(reg, b.Report())
	flat := reg.Flat()
	if got := flat[MetricName+`{app="lpr",rule="integrity",taxonomy="direct/file-system/symbolic-link"}`]; got != 2 {
		t.Errorf("lpr counter = %v, want 2 (map: %v)", got, flat)
	}
	if got := flat[MetricName+`{app="untar",rule="untrusted-exec",taxonomy="indirect/environment-variable"}`]; got != 1 {
		t.Errorf("untar counter = %v, want 1", got)
	}
	// Nil registry and zero counts must not panic or add series.
	cat := vulndb.CategoryOfFinding(eai.ClassDirect, interpose.KindFile, eai.AttrSymlink)
	Instrument(nil, b.Report())
	Count(nil, "a", "r", cat, 1)
	Count(reg, "a", "r", cat, 0)
	if _, ok := reg.Flat()[MetricName+`{app="a",rule="r",taxonomy="direct/file-system/symbolic-link"}`]; ok {
		t.Error("zero-count fold created a series")
	}
}
