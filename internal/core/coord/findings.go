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
	"sort"

	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/vulndb"
)

// findingOcc is one violating trace with its cluster signature.
type findingOcc struct {
	sig sched.Signature
	tr  findings.Trace
}

// jobFindings is one completed job's violation extract.
type jobFindings struct {
	app, variant string
	occs         []findingOcc
	// classes counts the distinct signatures among occs — the number of
	// finding records this job contributes.
	classes int
}

// extractFindingsLocked caches the violation occurrences of a freshly
// recorded outcome's decoded result on the job record, folding each
// into the eptest_findings_total counters. Failed campaigns contribute
// nothing. Callers hold co.mu.
func (co *Coordinator) extractFindingsLocked(idx int, o *Outcome, res *inject.Result) {
	if o.Err != "" {
		return
	}
	jf := &jobFindings{app: o.Name, variant: o.Variant}
	seen := map[sched.Signature]bool{}
	for _, in := range res.Violations() {
		for _, v := range in.Violations {
			sig := sched.Signature{
				Rule:  v.Kind,
				Class: in.Class,
				Attr:  in.Attr,
				Sem:   in.Sem,
				Kind:  in.Kind,
			}
			if !seen[sig] {
				seen[sig] = true
				jf.classes++
			}
			jf.occs = append(jf.occs, findingOcc{sig: sig, tr: findings.Trace{
				Point:  in.Point,
				Fault:  in.FaultID,
				Object: v.Object,
				Detail: v.Detail,
			}})
			findings.Count(co.reg, o.Name, sig.Rule.String(),
				vulndb.CategoryOfFinding(in.Class, in.Kind, in.Attr), 1)
		}
	}
	if len(jf.occs) > 0 {
		co.jobs[idx].finds = jf
	}
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
		jf := co.jobs[i].finds
		if jf == nil {
			continue
		}
		for _, oc := range jf.occs {
			b.Add(jf.app, jf.variant, oc.sig, oc.tr)
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
