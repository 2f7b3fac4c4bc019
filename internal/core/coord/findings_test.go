package coord_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/eai"
	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/policy"
	"repro/internal/core/store"
	"repro/internal/interpose"
	"repro/internal/vulndb"
)

// violResult fabricates a campaign result with two violating
// injections — one integrity breach through a symlinked file, one
// crash — plus a tolerated one that must not surface as a finding.
func violResult(label string) *inject.Result {
	return &inject.Result{
		Campaign: label,
		Injections: []inject.Injection{
			{
				Point: "open:/tmp/spool#1", Site: "open:/tmp/spool",
				Kind: interpose.KindFile, FaultID: "f-symlink",
				Class: eai.ClassDirect, Attr: eai.AttrSymlink,
				Violations: []policy.Violation{{
					Kind: policy.KindIntegrity, Point: "open:/tmp/spool#1",
					Object: "/tmp/spool", Detail: "write through attacker symlink",
				}},
			},
			{
				Point: "open:/tmp/spool#2", Site: "open:/tmp/spool",
				Kind: interpose.KindFile, FaultID: "f-missing",
				Class: eai.ClassDirect, Attr: eai.AttrExistence,
			},
			{
				Point: "read:stdin#1", Site: "read:stdin",
				Kind: interpose.KindNetwork, FaultID: "f-garble",
				Class: eai.ClassIndirect, Sem: eai.SemRaw,
				Violations: []policy.Violation{{
					Kind: policy.KindCrash, Point: "read:stdin#1",
					Detail: "SIGSEGV after 3 events",
				}},
			},
		},
	}
}

// violOutcome wraps violResult for catalog index idx.
func violOutcome(t *testing.T, idx int) coord.Outcome {
	t.Helper()
	label := testCatalog[idx]
	name, variant, _ := strings.Cut(label, "/")
	b, err := store.EncodeResult(violResult(label))
	if err != nil {
		t.Fatal(err)
	}
	return coord.Outcome{Name: name, Variant: variant, Result: b}
}

// TestFindingsAggregation drives completions on the fake clock and pins
// every live findings surface at once: the assembled report matches the
// canonical builder output byte-for-byte, the per-campaign counts and
// metric counters agree with it, and /v1/findings serves exactly the
// bytes a file export would contain.
func TestFindingsAggregation(t *testing.T) {
	t.Parallel()
	clk := newFakeClock()
	reg := obs.NewRegistry()
	co := coord.New(testCatalog, coord.Options{
		LeaseTTL: 10 * time.Second, Now: clk.Now, Metrics: reg,
	})
	id, err := co.Register("alice", testCatalog)
	if err != nil {
		t.Fatal(err)
	}

	if got := co.FindingsReport(); len(got.Findings) != 0 {
		t.Fatalf("fresh coordinator reports %d findings, want 0", len(got.Findings))
	}

	// Jobs 0 (a/vulnerable) and 2 (b/vulnerable) violate; job 1
	// completes clean.
	mustClaim(t, co, id, 0)
	mustClaim(t, co, id, 1)
	mustClaim(t, co, id, 2)
	for _, idx := range []int{0, 2} {
		if dup, err := co.Complete(id, idx, violOutcome(t, idx)); err != nil || dup {
			t.Fatalf("Complete(%d) = (dup %v, %v)", idx, dup, err)
		}
	}
	if dup, err := co.Complete(id, 1, fakeOutcome(t, 1)); err != nil || dup {
		t.Fatalf("Complete(1) = (dup %v, %v)", dup, err)
	}

	// The live report must be byte-identical to the canonical builder
	// run over the same results — the merge/export equivalence in
	// miniature.
	b := findings.NewBuilder()
	for _, idx := range []int{0, 2} {
		name, variant, _ := strings.Cut(testCatalog[idx], "/")
		b.AddResult(name, variant, violResult(testCatalog[idx]))
	}
	want, err := b.Report().Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.FindingsReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("live findings diverge from canonical builder:\n--- live\n%s--- want\n%s", got, want)
	}

	// Two campaigns (a, b) × two finding classes each, two traces each.
	rep := co.FindingsReport()
	if len(rep.Findings) != 4 || rep.Traces() != 4 {
		t.Fatalf("findings = %d records / %d traces, want 4/4", len(rep.Findings), rep.Traces())
	}

	// The default full-catalog campaign aggregates both.
	st := co.Status()
	if len(st.Campaigns) != 1 {
		t.Fatalf("campaigns = %d, want the default view", len(st.Campaigns))
	}
	if c := st.Campaigns[0]; c.Findings != 4 || c.Violations != 4 {
		t.Fatalf("campaign counts = %d findings / %d violations, want 4/4", c.Findings, c.Violations)
	}

	// Counters folded once per violating trace, labelled by taxonomy.
	flat := reg.Flat()
	for key, want := range map[string]float64{
		findings.MetricName + `{app="a",rule="integrity",taxonomy="direct/file-system/symbolic-link"}`: 1,
		findings.MetricName + `{app="a",rule="crash",taxonomy="indirect/network-input"}`:               1,
		findings.MetricName + `{app="b",rule="integrity",taxonomy="direct/file-system/symbolic-link"}`: 1,
		findings.MetricName + `{app="b",rule="crash",taxonomy="indirect/network-input"}`:               1,
	} {
		if flat[key] != want {
			t.Errorf("counter %s = %v, want %v (have %v)", key, flat[key], want, flat)
		}
	}

	// TopFindings caps the list without disturbing record content.
	if top := co.TopFindings(2); len(top) != 2 {
		t.Fatalf("TopFindings(2) = %d records", len(top))
	}

	// The HTTP surface serves the canonical bytes.
	srv := httptest.NewServer(coord.FindingsHandler(co))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(body, want) {
		t.Fatalf("/v1/findings body diverges from canonical encoding:\n%s", body)
	}

	// The status page grows a findings section listing the records.
	page := httptest.NewServer(coord.StatusPage(co))
	defer page.Close()
	resp, err = http.Get(page.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	html, _ := io.ReadAll(resp.Body)
	for _, wantStr := range []string{"findings — top", "EPT-", `<td class="l">a/vulnerable</td>`, "integrity/direct/symbolic-link on file", "direct on file-system/symbolic-link"} {
		if !strings.Contains(string(html), wantStr) {
			t.Fatalf("status page missing %q:\n%s", wantStr, html)
		}
	}
}

// TestFindingsSurviveRestore pins durability: a coordinator rebuilt
// from its journal (with ref-elided outcomes resolved through the
// result cache) re-extracts the same findings, byte-identically, and
// folds the same per-campaign counts, also for a campaign submitted
// after its findings landed.
func TestFindingsSurviveRestore(t *testing.T) {
	t.Parallel()
	co, _, mj, cache, id := journaledCoord(t)
	mustClaim(t, co, id, 0)
	res := violResult(testCatalog[0])
	b, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	fp := fakeFingerprint(0)
	cache.Put(fp, testCatalog[0], res)
	name, variant, _ := strings.Cut(testCatalog[0], "/")
	o := coord.Outcome{Name: name, Variant: variant, Result: b, Fingerprint: fp}
	if dup, err := co.Complete(id, 0, o); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}
	want, err := co.FindingsReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if co.FindingsReport().Traces() == 0 {
		t.Fatal("no findings before restore; the test proves nothing")
	}
	if _, err := co.Submit(coord.CampaignSpec{Name: "late", Filter: "a/*"}); err != nil {
		t.Fatal(err)
	}
	camps := co.Campaigns()
	if late := camps[1]; late.Findings == 0 || late.Findings != camps[0].Findings || late.Violations != camps[0].Violations {
		t.Fatalf("campaigns = %+v, want the late campaign to count job 0's findings", camps)
	}

	clk2 := newFakeClock()
	co2 := restoreWithClock(t, clk2, mj, cache)
	got, err := co2.FindingsReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("findings drift across restore:\n--- restored\n%s--- want\n%s", got, want)
	}
	for _, c := range []*coord.Coordinator{co, co2} {
		if err := c.Recount(); err != nil {
			t.Fatal(err)
		}
	}
	if got := co2.Campaigns(); !reflect.DeepEqual(got, camps) {
		t.Fatalf("restored campaigns = %+v, want %+v", got, camps)
	}
}

// restoreWithClock is restore with an explicit clock, for tests that
// need the restored coordinator on a fresh timeline.
func restoreWithClock(t *testing.T, clk *fakeClock, mj *coord.MemJournal, cache *memCache) *coord.Coordinator {
	t.Helper()
	co, err := coord.Restore(testCatalog, coord.Options{
		LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: &coord.MemJournal{}, Results: cache,
	}, mj.Records())
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestFindingsCountedPerSignature pins the counters a completion folds
// in once per signature: the eptest_findings_total series, their order
// and values equal a fold of one increment per violating trace, also
// when a signature's traces are not contiguous and two signatures share
// one series.
func TestFindingsCountedPerSignature(t *testing.T) {
	t.Parallel()
	crash := func(sem eai.Semantic, point string) inject.Injection {
		return inject.Injection{Point: point, Kind: interpose.KindNetwork, FaultID: "f-" + point,
			Class: eai.ClassIndirect, Sem: sem,
			Violations: []policy.Violation{{Kind: policy.KindCrash, Point: point}}}
	}
	symlink := func(point string) inject.Injection {
		return inject.Injection{Point: point, Kind: interpose.KindFile, FaultID: "f-" + point,
			Class: eai.ClassDirect, Attr: eai.AttrSymlink,
			Violations: []policy.Violation{{Kind: policy.KindIntegrity, Point: point, Object: "/tmp/x"}}}
	}
	res := &inject.Result{Campaign: testCatalog[0], Injections: []inject.Injection{
		crash(eai.SemRaw, "r#1"), symlink("o#1"), crash(eai.SemRaw, "r#2"),
		crash(eai.SemFileName, "r#3"), symlink("o#2"),
	}}
	want := obs.NewRegistry()
	for _, in := range res.Injections {
		for _, v := range in.Violations {
			findings.Count(want, "a", v.Kind.String(), vulndb.CategoryOfFinding(in.Class, in.Kind, in.Attr), 1)
		}
	}

	got := obs.NewRegistry()
	co := coord.New(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: newFakeClock().Now, Metrics: got})
	id, err := co.Register("alice", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	mustClaim(t, co, id, 0)
	b, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Complete(id, 0, coord.Outcome{Name: "a", Variant: "vulnerable", Result: b}); err != nil {
		t.Fatal(err)
	}
	series := func(reg *obs.Registry) []string {
		var expo strings.Builder
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(expo.String(), "\n") {
			if strings.HasPrefix(line, findings.MetricName+"{") {
				out = append(out, line)
			}
		}
		return out
	}
	g, w := series(got), series(want)
	if len(w) != 2 || strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("findings series:\n%s\nwant:\n%s", strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
	if st := co.Status(); st.Campaigns[0].Findings != 3 || st.Campaigns[0].Violations != 5 {
		t.Fatalf("campaign counts = %d findings / %d violations, want 3/5",
			st.Campaigns[0].Findings, st.Campaigns[0].Violations)
	}
}

// TestFindingsReportMergesStrayDimensions pins the live report on a
// completion whose signatures carry a dimension they do not render,
// as an uploaded result may: injections that render alike share one
// finding, with its traces in plan order, exactly as the export of the
// same result.
func TestFindingsReportMergesStrayDimensions(t *testing.T) {
	t.Parallel()
	indirect := func(attr eai.Attr, point string) inject.Injection {
		return inject.Injection{Point: point, Kind: interpose.KindEnvVar, FaultID: "f-" + point,
			Class: eai.ClassIndirect, Attr: attr, Sem: eai.SemPathList,
			Violations: []policy.Violation{{Kind: policy.KindUntrustedExec, Point: point}}}
	}
	res := &inject.Result{Campaign: testCatalog[0], Injections: []inject.Injection{
		indirect(0, "e#1"), indirect(eai.AttrSymlink, "e#2"), indirect(0, "e#3"),
	}}
	co := coord.New(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: newFakeClock().Now})
	id, err := co.Register("alice", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	mustClaim(t, co, id, 0)
	b, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Complete(id, 0, coord.Outcome{Name: "a", Variant: "vulnerable", Result: b}); err != nil {
		t.Fatal(err)
	}
	rep := co.FindingsReport()
	if len(rep.Findings) != 1 || len(rep.Findings[0].Traces) != 3 || rep.Findings[0].Traces[1].Point != "e#2" {
		t.Fatalf("live report = %+v, want one finding with traces e#1, e#2, e#3", rep.Findings)
	}
	got, _ := rep.Encode()
	want, _ := findings.FromResult("a", "vulnerable", res).Encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("live report:\n%s\nwant the export:\n%s", got, want)
	}
}
