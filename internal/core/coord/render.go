package coord

import (
	"fmt"
	"strings"
)

// Render formats the distributed-coordinator section a `-coord-url`
// worker prints after its partial suite report: the queue's drain
// state and, per worker, how many jobs it claimed, completed, renewed,
// lost to lease expiry, and had discarded as late duplicates. Like the
// dispatcher section, the split across workers describes this
// particular fleet run and never takes part in report byte-identity
// checks — those compare the merged report the coordinator assembles.
func (st Status) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coordinator: %d job(s) — %d done, %d claimed, %d pending; %d requeue(s) after lease expiry, %d duplicate completion(s) discarded\n",
		st.Jobs, st.Done, st.Claimed, st.Pending, st.Requeues, st.Duplicates)
	for _, ws := range st.Workers {
		name := ws.Name
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(&b, "  %-4s %-20s %4d claim(s) %4d completed %4d renewal(s) %3d expired %3d duplicate(s)\n",
			ws.ID, name, ws.Claims, ws.Completions, ws.Renewals, ws.Expiries, ws.Duplicates)
	}
	// Departed workers and named campaigns render only when present, so
	// a plain fleet run's section stays byte-identical to earlier
	// releases.
	if d := st.Departed; d != nil && d.Workers > 0 {
		fmt.Fprintf(&b, "  departed: %d worker(s) — %d claim(s) %d completed %d expired %d duplicate(s)\n",
			d.Workers, d.Claims, d.Completions, d.Expiries, d.Duplicates)
	}
	if len(st.Campaigns) > 1 {
		for _, c := range st.Campaigns {
			fmt.Fprintf(&b, "  campaign %-20s %4d/%d done (%s)\n", c.Name, c.Done, c.Jobs, c.State)
		}
	}
	return b.String()
}
