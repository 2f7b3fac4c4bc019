// Package findings turns the suite's violation clusters into canonical
// machine-readable records (schema eptest-findings/1), modeled on
// govulncheck's structured results: one finding per distinct
// (app, variant, violation signature), carrying the paper's
// vulnerability taxonomy and the concrete fault traces that triggered
// it, with a stable content-derived ID so two suite runs can be diffed
// semantically instead of byte-wise.
//
// Determinism is the package's load-bearing property: a Report built
// from any mix of live, cached, sharded, or fleet-merged campaign
// results encodes to exactly the bytes a single cold in-process run
// produces, because findings are keyed and sorted by content, traces
// follow plan order, and the codec has a single canonical rendering.
package findings

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/core/inject"
	"repro/internal/core/jsonstr"
	"repro/internal/core/obs"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
	"repro/internal/vulndb"
)

// SchemaVersion names the findings file format.
const SchemaVersion = "eptest-findings/1"

// MetricName is the obs counter family findings fold into:
// eptest_findings_total{app,rule,taxonomy} counts violating traces.
const MetricName = "eptest_findings_total"

const metricHelp = "Violating injection runs observed, by app, policy rule, and paper taxonomy."

// Trace is one concrete triggering of a finding: the interaction point
// perturbed, the catalog fault injected, and the oracle's explanation.
type Trace struct {
	// Point is the interaction point (site#occur) whose perturbation
	// violated the policy.
	Point string `json:"point"`
	// Fault is the catalog fault id injected there.
	Fault string `json:"fault"`
	// Object is the environment object the violation names.
	Object string `json:"object,omitempty"`
	// Detail is the oracle's explanation.
	Detail string `json:"detail,omitempty"`
}

// Taxonomy is the paper-style vulnerability classification of a
// finding, derived from internal/vulndb's Section 2.4 categories.
type Taxonomy struct {
	// Class is the EAI fault class: "indirect" or "direct".
	Class string `json:"class"`
	// Origin is the Table 2 input channel, for indirect findings.
	Origin string `json:"origin,omitempty"`
	// Entity is the Table 3 environment entity, for direct findings.
	Entity string `json:"entity,omitempty"`
	// Attr is the Table 4/6 attribute, for direct findings.
	Attr string `json:"attr,omitempty"`
	// Verdict is the classifier's human-readable verdict, rendered
	// exactly as `vulnclass -entries` prints database entries.
	Verdict string `json:"verdict"`
	// Slug is the compact token used as the `taxonomy` metric label,
	// e.g. "indirect/user-input" or "direct/file-system/symbolic-link".
	Slug string `json:"slug"`
}

// Finding is one canonical violation record: a distinct
// (app, variant, signature) class with every trace that triggered it.
type Finding struct {
	// ID is the stable content-derived identifier ("EPT-" + 16 hex
	// digits). See ComputeID for the stability contract.
	ID string `json:"id"`
	// App and Variant locate the campaign that produced the finding.
	App     string `json:"app"`
	Variant string `json:"variant,omitempty"`
	// Rule is the violated policy rule.
	Rule string `json:"rule"`
	// Severity is derived from the rule (see severityFor).
	Severity string `json:"severity"`
	// Signature is the human-readable sched.Signature key:
	// "rule/class/dimension on kind".
	Signature string `json:"signature"`
	// Taxonomy is the paper-style classification.
	Taxonomy Taxonomy `json:"taxonomy"`
	// Traces lists the concrete triggerings, in plan order.
	Traces []Trace `json:"traces"`
}

// Report is a findings file: the schema marker plus every finding in
// canonical order (app, then variant, then signature).
type Report struct {
	Schema   string    `json:"schema"`
	Findings []Finding `json:"findings"`
}

// Traces returns the total trace count across all findings.
func (r *Report) Traces() int {
	n := 0
	for i := range r.Findings {
		n += len(r.Findings[i].Traces)
	}
	return n
}

// ComputeID derives a finding's stable ID: "EPT-" plus the first 16 hex
// digits of a SHA-256 over the versioned identity key
// app|variant|signature. The key deliberately excludes traces and
// severity: a finding keeps its identity while its trigger set drifts,
// which is what lets the differ report "changed" instead of a
// fixed/new pair.
func ComputeID(app, variant string, sig string) string {
	h := sha256.Sum256([]byte("eptest-findings|" + app + "|" + variant + "|" + sig))
	return "EPT-" + hex.EncodeToString(h[:8])
}

// severityFor ranks policy rules. Arbitrary execution of untrusted code
// outranks data-integrity and secrecy breaches; consuming untrusted
// input without validation is a weakness but needs a second step;
// crashes are availability-only.
func severityFor(rule policy.Kind) string {
	switch rule {
	case policy.KindUntrustedExec:
		return "critical"
	case policy.KindIntegrity, policy.KindConfidentiality:
		return "high"
	case policy.KindUntrustedInput:
		return "medium"
	case policy.KindCrash:
		return "low"
	default:
		return "unknown"
	}
}

// taxonomyFor classifies a signature with vulndb's measured-finding
// bridge and renders it into the record's string form.
func taxonomyFor(sig sched.Signature) Taxonomy {
	c := vulndb.CategoryOfFinding(sig.Class, sig.Kind, sig.Attr)
	t := Taxonomy{
		Class:   c.Class.String(),
		Verdict: c.Verdict(),
		Slug:    c.Slug(),
	}
	if c.Origin != 0 {
		t.Origin = c.Origin.String()
	}
	if c.Entity != 0 {
		t.Entity = c.Entity.String()
	}
	if c.Attr != 0 {
		t.Attr = c.Attr.String()
	}
	return t
}

// Builder accumulates violation occurrences into findings. It is
// order-insensitive across campaigns — Report sorts canonically — but
// preserves trace order within a campaign, which is plan order. The
// per-finding work (the signature's rendering, the ID, severity and
// taxonomy) runs once per finding, not once per trace.
type Builder struct {
	index    map[findingKey]int
	findings []Finding
}

// findingKey is a finding's identity before it is rendered.
type findingKey struct {
	app, variant string
	sig          sched.Signature
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[findingKey]int)}
}

// Add records violating traces under the given app, variant, and
// violation signature. Signatures that render alike share a finding.
func (b *Builder) Add(app, variant string, sig sched.Signature, trs ...Trace) {
	if len(trs) == 0 {
		return
	}
	k := findingKey{app, variant, sig.Identity()}
	i, ok := b.index[k]
	if !ok {
		i = len(b.findings)
		b.index[k] = i
		key := sig.String()
		b.findings = append(b.findings, Finding{
			ID:        ComputeID(app, variant, key),
			App:       app,
			Variant:   variant,
			Rule:      sig.Rule.String(),
			Severity:  severityFor(sig.Rule),
			Signature: key,
			Taxonomy:  taxonomyFor(sig),
		})
	}
	b.findings[i].Traces = append(b.findings[i].Traces, trs...)
}

// AddResult folds every violation of one campaign result.
func (b *Builder) AddResult(app, variant string, res *inject.Result) {
	sched.EachViolation(res, func(sig sched.Signature, in *inject.Injection, v *policy.Violation) {
		b.Add(app, variant, sig, Trace{
			Point:  in.Point,
			Fault:  in.FaultID,
			Object: v.Object,
			Detail: v.Detail,
		})
	})
}

// Report renders the accumulated findings in canonical order. The
// returned report copies the findings, so the builder can keep
// accumulating (the coordinator snapshots mid-fleet).
func (b *Builder) Report() *Report {
	out := slices.Clone(b.findings)
	for i := range out {
		out[i].Traces = slices.Clone(out[i].Traces)
	}
	return sorted(out)
}

// sorted orders findings canonically (app, then variant, then
// signature) in place and wraps them in a report. An empty report
// holds an empty list, never a nil one, so it encodes as [].
func sorted(fs []Finding) *Report {
	if fs == nil {
		fs = []Finding{}
	}
	sort.Slice(fs, func(i, j int) bool {
		x, y := &fs[i], &fs[j]
		if x.App != y.App {
			return x.App < y.App
		}
		if x.Variant != y.Variant {
			return x.Variant < y.Variant
		}
		return x.Signature < y.Signature
	})
	return &Report{Schema: SchemaVersion, Findings: fs}
}

// FromResult builds a report from a single campaign result.
func FromResult(app, variant string, res *inject.Result) *Report {
	b := NewBuilder()
	b.AddResult(app, variant, res)
	return sorted(b.findings)
}

// FromSuite builds the canonical report for a whole suite run. Failed
// campaigns contribute nothing, matching sched.ClusterSuite.
func FromSuite(sr *sched.SuiteResult) *Report {
	b := NewBuilder()
	for _, c := range sr.Campaigns {
		if c.Err != nil || c.Result == nil {
			continue
		}
		b.AddResult(c.Job.Name, c.Job.Variant, c.Result)
	}
	// The builder is dropped, so its findings need no defensive copy.
	return sorted(b.findings)
}

// Encode renders the report in its canonical byte form: two-space
// indented JSON with a trailing newline, exactly the bytes
// json.MarshalIndent writes (reference_test.go holds the two to each
// other). Two reports with equal content encode to equal bytes. The
// bytes are one allocation of exactly their size; the error is always
// nil.
func (r *Report) Encode() ([]byte, error) {
	e := encoder{count: true}
	e.report(r)
	e.buf, e.count = make([]byte, 0, e.n), false
	e.report(r)
	return e.buf, nil
}

// encoder writes a report's canonical bytes without reflection. It
// runs twice over the report: a counting pass sizes the buffer, then
// the writing pass fills it.
type encoder struct {
	buf   []byte
	n     int
	count bool
}

// raw writes s as it is.
func (e *encoder) raw(s string) {
	if e.count {
		e.n += len(s)
	} else {
		e.buf = append(e.buf, s...)
	}
}

// member writes the separator, indent and key in prefix, then v as a
// JSON string.
func (e *encoder) member(prefix, v string) {
	e.raw(prefix)
	if e.count {
		e.n += jsonstr.Len(v)
	} else {
		e.buf = jsonstr.Append(e.buf, v)
	}
}

// omitEmpty writes an omitempty string member.
func (e *encoder) omitEmpty(prefix, v string) {
	if v != "" {
		e.member(prefix, v)
	}
}

// array writes null for a nil slice, [] for an empty one, and
// otherwise its n elements separated by commas, then end.
func (e *encoder) array(isNil bool, n int, end string, elem func(int)) {
	switch {
	case isNil:
		e.raw("null")
	case n == 0:
		e.raw("[]")
	default:
		e.raw("[")
		for i := 0; i < n; i++ {
			if i > 0 {
				e.raw(",")
			}
			elem(i)
		}
		e.raw(end)
	}
}

func (e *encoder) report(r *Report) {
	e.member("{\n  \"schema\": ", r.Schema)
	e.raw(",\n  \"findings\": ")
	e.array(r.Findings == nil, len(r.Findings), "\n  ]", func(i int) { e.finding(&r.Findings[i]) })
	e.raw("\n}\n")
}

func (e *encoder) finding(f *Finding) {
	e.member("\n    {\n      \"id\": ", f.ID)
	e.member(",\n      \"app\": ", f.App)
	e.omitEmpty(",\n      \"variant\": ", f.Variant)
	e.member(",\n      \"rule\": ", f.Rule)
	e.member(",\n      \"severity\": ", f.Severity)
	e.member(",\n      \"signature\": ", f.Signature)
	t := &f.Taxonomy
	e.member(",\n      \"taxonomy\": {\n        \"class\": ", t.Class)
	e.omitEmpty(",\n        \"origin\": ", t.Origin)
	e.omitEmpty(",\n        \"entity\": ", t.Entity)
	e.omitEmpty(",\n        \"attr\": ", t.Attr)
	e.member(",\n        \"verdict\": ", t.Verdict)
	e.member(",\n        \"slug\": ", t.Slug)
	e.raw("\n      },\n      \"traces\": ")
	e.array(f.Traces == nil, len(f.Traces), "\n      ]", func(i int) {
		tr := &f.Traces[i]
		e.member("\n        {\n          \"point\": ", tr.Point)
		e.member(",\n          \"fault\": ", tr.Fault)
		e.omitEmpty(",\n          \"object\": ", tr.Object)
		e.omitEmpty(",\n          \"detail\": ", tr.Detail)
		e.raw("\n        }")
	})
	e.raw("\n    }")
}

// Decode parses a findings file, rejecting unknown schemas.
func Decode(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("findings: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("findings: schema %q, this binary reads %q", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// ReadFile loads and decodes a findings file.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Count folds n violating traces into the registry's
// eptest_findings_total family. Nil-safe like the rest of obs.
func Count(reg *obs.Registry, app, rule string, cat vulndb.Category, n int) {
	if reg == nil || n == 0 {
		return
	}
	reg.Counter(MetricName, metricHelp,
		"app", app, "rule", rule, "taxonomy", cat.Slug()).Add(int64(n))
}

// Instrument folds a whole report into the registry: each finding's
// traces count toward its (app, rule, taxonomy) series, summed before
// the registry is touched, and series are created in first-use order.
// The app label is the campaign name (not the full variant label) to
// bound series cardinality.
func Instrument(reg *obs.Registry, r *Report) {
	if reg == nil {
		return
	}
	type series struct{ app, rule, slug string }
	sums := map[series]int64{}
	var order []series
	for i := range r.Findings {
		f := &r.Findings[i]
		k := series{f.App, f.Rule, f.Taxonomy.Slug}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += int64(len(f.Traces))
	}
	for _, k := range order {
		reg.Counter(MetricName, metricHelp, "app", k.app, "rule", k.rule, "taxonomy", k.slug).Add(sums[k])
	}
}
