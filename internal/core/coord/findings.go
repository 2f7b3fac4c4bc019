package coord

// Live findings aggregation: as completions land (and as journal
// replay re-records them), each outcome's violations are extracted
// into a compact per-job cache, so GET /v1/findings, the status page,
// and per-campaign counts serve the fleet's security results without
// re-decoding stored outcomes on every poll. The assembled report is
// canonical — byte-identical to the file `eptest -all -findings`
// writes for the same outcomes.

import (
	"net/http"
	"slices"
	"sort"

	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
	"repro/internal/vulndb"
)

// sigTraces is one signature's violating traces within a job, in
// plan order.
type sigTraces struct {
	sig    sched.Signature
	traces []findings.Trace
}

// jobFindings is one completed job's violation extract.
type jobFindings struct {
	app, variant string
	// sigs holds the job's distinct signatures in first-seen order —
	// one per finding record this job contributes.
	sigs []sigTraces
	// traces counts the violating traces across sigs.
	traces int
}

// extractFindingsLocked extracts the violation traces of a freshly
// recorded outcome's decoded result, grouped by signature, for its job
// record, and folds each group into the eptest_findings_total counters.
// Failed and clean campaigns extract nil. Callers hold co.mu.
func (co *Coordinator) extractFindingsLocked(o *Outcome, res *inject.Result) *jobFindings {
	if o.Err != "" {
		return nil
	}
	jf := &jobFindings{app: o.Name, variant: o.Variant}
	sched.EachViolation(res, func(sig sched.Signature, in *inject.Injection, v *policy.Violation) {
		// Group as the findings builder does, so each group's traces
		// stay in plan order when it merges them.
		sig = sig.Identity()
		i := slices.IndexFunc(jf.sigs, func(st sigTraces) bool { return st.sig == sig })
		if i < 0 {
			i = len(jf.sigs)
			jf.sigs = append(jf.sigs, sigTraces{sig: sig})
		}
		jf.sigs[i].traces = append(jf.sigs[i].traces, findings.Trace{
			Point:  in.Point,
			Fault:  in.FaultID,
			Object: v.Object,
			Detail: v.Detail,
		})
		jf.traces++
	})
	for _, st := range jf.sigs {
		findings.Count(co.reg, o.Name, st.sig.Rule.String(),
			vulndb.CategoryOfFinding(st.sig.Class, st.sig.Kind, st.sig.Attr), len(st.traces))
	}
	if jf.traces == 0 {
		return nil
	}
	return jf
}

// FindingsReport assembles the canonical findings report over every
// recorded outcome so far. Mid-drain it covers the completed subset;
// after the drain it is byte-identical (encoded) to the export of a
// single-process run over the same catalog.
func (co *Coordinator) FindingsReport() *findings.Report {
	co.mu.Lock()
	defer co.mu.Unlock()
	b := findings.NewBuilder()
	for i := range co.jobs {
		if jf := co.jobs[i].finds; jf != nil {
			for _, st := range jf.sigs {
				b.Add(jf.app, jf.variant, st.sig, st.traces...)
			}
		}
	}
	return b.Report()
}

// TopFindings returns the n largest findings by trace count (canonical
// report order breaking ties), for the status page's findings section.
func (co *Coordinator) TopFindings(n int) []findings.Finding {
	rep := co.FindingsReport()
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return len(rep.Findings[i].Traces) > len(rep.Findings[j].Traces)
	})
	if len(rep.Findings) > n {
		rep.Findings = rep.Findings[:n]
	}
	return rep.Findings
}

// FindingsHandler serves the live findings report at GET /v1/findings
// in the canonical eptest-findings/1 encoding, so `curl | eptest -diff`
// round-trips against file exports byte-for-byte.
func FindingsHandler(co *Coordinator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := co.FindingsReport().Encode()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
}
