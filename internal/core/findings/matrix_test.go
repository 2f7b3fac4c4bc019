package findings

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
	"repro/internal/interpose"
)

// catalogSuites runs the base catalog and the matrix once per test
// binary.
var catalogSuites = sync.OnceValue(func() []*sched.SuiteResult {
	var srs []*sched.SuiteResult
	for _, jobs := range [][]sched.Job{apps.SuiteJobs(), matrix.SuiteJobs()} {
		srs = append(srs, sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2}))
	}
	return srs
})

// matrixReport is the matrix's findings report, folded once.
var matrixReport = sync.OnceValue(func() *Report { return FromSuite(catalogSuites()[1]) })

// TestFoldMatchesReferenceOnCatalog holds the per-finding fold and the
// hand-written encoder to the per-trace builder and json.MarshalIndent
// on the base catalog and the whole matrix: the same findings, and the
// same bytes in a buffer of exactly their size.
func TestFoldMatchesReferenceOnCatalog(t *testing.T) {
	t.Parallel()
	for i, sr := range catalogSuites() {
		got := FromSuite(sr)
		if i == 1 {
			got = matrixReport()
		}
		want := referenceFromSuite(sr)
		if len(want.Findings) == 0 {
			t.Fatalf("catalog %d folded no findings", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("catalog %d: FromSuite differs from the per-trace reference (%d vs %d findings)",
				i, len(got.Findings), len(want.Findings))
		}
		enc, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceEncode(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("catalog %d: Encode diverges from json.MarshalIndent at byte %d", i, firstDiff(enc, ref))
		}
		if cap(enc) != len(enc) {
			t.Errorf("catalog %d: Encode sized its buffer %d for %d bytes", i, cap(enc), len(enc))
		}
	}
}

// TestInstrumentMatchesReferenceOnMatrix pins the metrics the matrix's
// findings fold into: the eptest_findings_total exposition (values and
// series order) and the -metrics-json snapshot equal the per-finding
// reference's.
func TestInstrumentMatchesReferenceOnMatrix(t *testing.T) {
	t.Parallel()
	rep := matrixReport()
	got, want := obs.NewRegistry(), obs.NewRegistry()
	Instrument(got, rep)
	referenceInstrument(want, rep)
	var gotProm, wantProm, gotJSON, wantJSON bytes.Buffer
	for _, w := range []error{
		got.WritePrometheus(&gotProm), want.WritePrometheus(&wantProm),
		got.WriteJSON(&gotJSON), want.WriteJSON(&wantJSON),
	} {
		if w != nil {
			t.Fatal(w)
		}
	}
	if !bytes.Contains(wantProm.Bytes(), []byte(MetricName+"{")) {
		t.Fatalf("reference exposition holds no %s series:\n%s", MetricName, wantProm.Bytes())
	}
	if !bytes.Equal(gotProm.Bytes(), wantProm.Bytes()) {
		t.Errorf("exposition differs:\n--- got\n%s--- want\n%s", gotProm.Bytes(), wantProm.Bytes())
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Errorf("metrics JSON differs:\n--- got\n%s--- want\n%s", gotJSON.Bytes(), wantJSON.Bytes())
	}
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestFoldMatchesReferenceOnEdges holds FromSuite, FromResult and
// Builder.Report to the per-trace reference where the catalog does not
// reach: no violations at all, which encodes "findings": [] rather
// than null, and signatures carrying a dimension String does not
// render, which share one finding with traces in plan order.
func TestFoldMatchesReferenceOnEdges(t *testing.T) {
	t.Parallel()
	viol := func(point string, class eai.Class, attr eai.Attr, sem eai.Semantic) inject.Injection {
		return inject.Injection{Point: point, FaultID: "f-" + point, Kind: interpose.KindEnvVar,
			Class: class, Attr: attr, Sem: sem,
			Violations: []policy.Violation{{Kind: policy.KindUntrustedExec, Point: point}}}
	}
	clean := &inject.Result{Campaign: "clean", Injections: []inject.Injection{{Point: "p#1", FaultID: "f"}}}
	stray := &inject.Result{Campaign: "stray", Injections: []inject.Injection{
		viol("i#1", eai.ClassIndirect, 0, eai.SemPathList),
		viol("d#1", eai.ClassDirect, eai.AttrSymlink, 0),
		viol("i#2", eai.ClassIndirect, eai.AttrSymlink, eai.SemPathList),
		viol("d#2", eai.ClassDirect, eai.AttrSymlink, eai.SemPathList),
		viol("i#3", eai.ClassIndirect, 0, eai.SemPathList),
	}}
	suite := func(rs ...*inject.Result) *sched.SuiteResult {
		sr := &sched.SuiteResult{}
		for _, r := range rs {
			sr.Campaigns = append(sr.Campaigns, sched.CampaignResult{Job: sched.Job{Name: r.Campaign, Variant: "v"}, Result: r})
		}
		return sr
	}
	for name, c := range map[string]struct {
		got  *Report
		want *sched.SuiteResult
		n    int
	}{
		"empty builder": {NewBuilder().Report(), suite(), 0},
		"empty suite":   {FromSuite(suite(clean)), suite(clean), 0},
		"empty result":  {FromResult("clean", "v", clean), suite(clean), 0},
		"stray suite":   {FromSuite(suite(stray, clean)), suite(stray, clean), 2},
		"stray result":  {FromResult("stray", "v", stray), suite(stray), 2},
	} {
		want := referenceFromSuite(c.want)
		if len(want.Findings) != c.n {
			t.Fatalf("%s: reference folded %d findings, want %d", name, len(want.Findings), c.n)
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s: fold differs from the per-trace reference:\n%+v\nwant\n%+v", name, c.got, want)
		}
		got, _ := c.got.Encode()
		ref, err := referenceEncode(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: Encode = %s, want %s", name, got, ref)
		}
	}
}
