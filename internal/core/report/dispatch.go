package report

import (
	"fmt"
	"strings"

	"repro/internal/core/sched"
)

// Dispatch renders the work-stealing dispatcher's scheduling section
// of a suite run: the totals, then one line per worker. The totals
// (workers, campaigns planned, runs executed, runs shared) are
// deterministic for a given suite; the per-worker split and the steal
// count describe how this particular run balanced, which is why the
// section is printed only under -v and never takes part in report
// byte-identity checks. A shared run is a planned run whose outcome
// was copied from an equivalent run of the same pass.
func Dispatch(sr *sched.SuiteResult) string {
	ds := sr.Dispatch
	var b strings.Builder
	fmt.Fprintf(&b, "dispatcher: %d worker(s), %d campaign(s) planned, %d run(s) executed, %d steal(s), %d run(s) shared\n",
		ds.Workers, ds.Plans, ds.Runs, ds.Steals, ds.Shared)
	for w, ws := range ds.PerWorker {
		fmt.Fprintf(&b, "  worker %-3d %4d plan(s) %6d run(s) %5d steal(s) %6d shared\n", w, ws.Plans, ws.Runs, ws.Steals, ws.Shared)
	}
	return b.String()
}
