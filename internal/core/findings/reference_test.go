package findings

import (
	"encoding/json"
	"sort"

	"repro/internal/core/obs"
	"repro/internal/core/sched"
)

// The reference fold: the per-trace builder, encoding/json path and
// per-finding instrumentation that findings.go replaced. The canonical
// export is by definition what json.MarshalIndent writes for the
// report the per-trace builder assembles, so FromSuite, Encode and
// Instrument must match these exactly.

// referenceEncode is Encode before it was written by hand.
func referenceEncode(r *Report) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// referenceFromSuite is FromSuite before the fold was keyed per
// finding: every trace renders its signature, derives the ID and looks
// its finding up by it, and the report copies every trace.
func referenceFromSuite(sr *sched.SuiteResult) *Report {
	byID := map[string]*Finding{}
	for _, c := range sr.Campaigns {
		if c.Err != nil || c.Result == nil {
			continue
		}
		app, variant := c.Job.Name, c.Job.Variant
		for _, in := range c.Result.Violations() {
			for _, v := range in.Violations {
				sig := sched.Signature{Rule: v.Kind, Class: in.Class, Attr: in.Attr, Sem: in.Sem, Kind: in.Kind}
				id := ComputeID(app, variant, sig.String())
				f, ok := byID[id]
				if !ok {
					f = &Finding{
						ID:        id,
						App:       app,
						Variant:   variant,
						Rule:      sig.Rule.String(),
						Severity:  severityFor(sig.Rule),
						Signature: sig.String(),
						Taxonomy:  taxonomyFor(sig),
					}
					byID[id] = f
				}
				f.Traces = append(f.Traces, Trace{Point: in.Point, Fault: in.FaultID, Object: v.Object, Detail: v.Detail})
			}
		}
	}
	out := make([]Finding, 0, len(byID))
	for _, f := range byID {
		cp := *f
		cp.Traces = append([]Trace(nil), f.Traces...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		if out[i].Variant != out[j].Variant {
			return out[i].Variant < out[j].Variant
		}
		return out[i].Signature < out[j].Signature
	})
	return &Report{Schema: SchemaVersion, Findings: out}
}

// referenceInstrument is Instrument before it summed per series: one
// registry call per finding.
func referenceInstrument(reg *obs.Registry, r *Report) {
	for i := range r.Findings {
		f := &r.Findings[i]
		reg.Counter(MetricName, metricHelp,
			"app", f.App, "rule", f.Rule, "taxonomy", f.Taxonomy.Slug).Add(int64(len(f.Traces)))
	}
}
