package coord

import (
	"encoding/json"
	"html/template"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core/findings"
)

// StatusSchemaVersion identifies the /v1/status JSON shape. Bump it on
// any incompatible change.
const StatusSchemaVersion = "eptest-status/1"

// WorkerStatus is one registered worker's live view: what it holds,
// when it last spoke, and what it has delivered.
type WorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// ActiveLeases are the catalog indices currently leased to this
	// worker.
	ActiveLeases []int `json:"active_leases,omitempty"`
	// HeartbeatAgeMillis is how long ago the worker last made any
	// protocol call. A healthy worker renews at a third of the lease
	// TTL, so an age beyond the TTL means it is gone.
	HeartbeatAgeMillis int64 `json:"heartbeat_age_ms"`
	Claims             int   `json:"claims"`
	Renewals           int   `json:"renewals,omitempty"`
	Completions        int   `json:"completions"`
	Duplicates         int   `json:"duplicates,omitempty"`
	Expiries           int   `json:"expiries,omitempty"`
	// RunsDone totals the injection runs in this worker's recorded
	// outcomes.
	RunsDone int `json:"runs_done"`
}

// Status is the coordinator's one snapshot: served at GET /v1/status
// and GET /v1/coord/state, rendered by the HTML status page, and
// printed by a -coord-url worker (Render).
type Status struct {
	Schema  string `json:"schema"`
	Jobs    int    `json:"jobs"`
	Pending int    `json:"pending"`
	Claimed int    `json:"claimed"`
	Done    int    `json:"done"`
	// Requeues counts expired leases put back in the queue; Duplicates
	// counts late completions discarded first-write-wins.
	Requeues   int  `json:"requeues"`
	Expiries   int  `json:"expiries"`
	Duplicates int  `json:"duplicates"`
	Drained    bool `json:"drained"`
	// RunsDone totals the injection runs across recorded outcomes, the
	// numerator of RunsPerSec.
	RunsDone      int     `json:"runs_done"`
	ElapsedMillis int64   `json:"elapsed_ms"`
	RunsPerSec    float64 `json:"runs_per_sec"`
	// EtaMillis estimates time to drain from the observed per-job
	// completion rate: elapsed/done × remaining, where done counts only
	// completions this process recorded itself — a restarted
	// coordinator that reloaded finished work from its journal has
	// observed no throughput yet, and renders -1 ("ETA —") rather than
	// extrapolating from work it never timed. Zero once drained; -1
	// while this process has recorded no completion.
	EtaMillis int64          `json:"eta_ms"`
	Workers   []WorkerStatus `json:"workers,omitempty"`
	// Departed aggregates the counters of workers the churn sweep
	// folded away; nil until the first departure.
	Departed *DepartedStats `json:"departed,omitempty"`
	// Campaigns lists every campaign view in submission order, the
	// full-catalog default first.
	Campaigns []CampaignStatus `json:"campaigns,omitempty"`
}

// Status snapshots the queue. The expiry sweep runs first, so leases
// and heartbeat ages reflect the present, not the last protocol call.
// The counts are the fold's; the jobs are walked once, for the leases.
func (co *Coordinator) Status() Status {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	now := co.now()

	st := Status{
		Schema:        StatusSchemaVersion,
		Jobs:          len(co.jobs),
		Pending:       len(co.jobs) - co.claimed - co.done,
		Claimed:       co.claimed,
		Done:          co.done,
		Requeues:      co.requeues,
		Expiries:      co.requeues,
		Duplicates:    co.duplicates,
		Drained:       co.done == len(co.jobs),
		RunsDone:      co.runsDone,
		ElapsedMillis: now.Sub(co.startedAt).Milliseconds(),
	}
	leases := make(map[string][]int)
	for i := range co.jobs {
		if j := &co.jobs[i]; j.phase == jobClaimed {
			leases[j.worker] = append(leases[j.worker], i)
		}
	}
	// Throughput and ETA extrapolate only from completions this process
	// recorded itself (liveRuns/liveDone): after a restart the journal
	// restores done counts but not observed rate, and dividing restored
	// work by the seconds since restart would fabricate throughput.
	if elapsed := now.Sub(co.startedAt); elapsed > 0 {
		st.RunsPerSec = float64(co.liveRuns) / elapsed.Seconds()
	}
	switch {
	case st.Drained:
		st.EtaMillis = 0
	case co.liveDone == 0:
		st.EtaMillis = -1
	default:
		perJob := now.Sub(co.startedAt) / time.Duration(co.liveDone)
		st.EtaMillis = (perJob * time.Duration(len(co.jobs)-co.done)).Milliseconds()
	}
	for _, id := range co.order {
		ws := co.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID:                 ws.id,
			Name:               ws.name,
			ActiveLeases:       leases[id],
			HeartbeatAgeMillis: now.Sub(ws.lastSeen).Milliseconds(),
			Claims:             ws.Claims,
			Renewals:           ws.Renewals,
			Completions:        ws.Completions,
			Duplicates:         ws.Duplicates,
			Expiries:           ws.Expiries,
			RunsDone:           ws.RunsDone,
		})
	}
	if co.departed.Workers > 0 {
		d := co.departed
		st.Departed = &d
	}
	for _, name := range co.campOrder {
		st.Campaigns = append(st.Campaigns, co.campaigns[name].status())
	}
	return st
}

// StatusHandler serves the Status snapshot as JSON — the machine
// surface CI and dashboards poll at GET /v1/status.
func StatusHandler(co *Coordinator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(co.Status())
	})
}

// statusPage renders the Status snapshot as a self-refreshing HTML
// table. Server-side rendering plus a meta-refresh keeps the page
// dependency-free and working under the same bearer-auth wrapper as
// the JSON endpoint.
var statusPage = template.Must(template.New("status").Funcs(template.FuncMap{
	"millis": func(ms int64) string {
		if ms < 0 {
			return "—"
		}
		return (time.Duration(ms) * time.Millisecond).Round(time.Second).String()
	},
	"rate": formatRate,
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>eptest coordinator</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.2rem; }
table { border-collapse: collapse; margin-top: 1rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.7rem; text-align: right; }
th { background: #f3f3f3; }
td.l, th.l { text-align: left; }
.bar { width: 16rem; height: 1rem; background: #eee; border: 1px solid #ccc; }
.bar div { height: 100%; background: #4a8; }
.stale { color: #b00; font-weight: bold; }
</style>
</head>
<body>
<h1>eptest coordinator — {{.Done}}/{{.Jobs}} jobs{{if .Drained}} (drained){{end}}</h1>
<div class="bar"><div style="width: {{.Pct}}%"></div></div>
<p>
pending {{.Pending}} · claimed {{.Claimed}} · done {{.Done}} ·
requeues {{.Requeues}} · duplicates {{.Duplicates}}<br>
{{.RunsDone}} runs in {{millis .ElapsedMillis}} ({{rate .RunsPerSec}} runs/s) ·
ETA {{millis .EtaMillis}}
</p>
<table>
<tr><th class="l">worker</th><th class="l">name</th><th>leases</th><th>heartbeat</th><th>claims</th><th>done</th><th>runs</th><th>expiries</th></tr>
{{range .Workers}}
<tr>
<td class="l">{{.ID}}</td>
<td class="l">{{.Name}}</td>
<td>{{len .ActiveLeases}}</td>
<td{{if .Stale}} class="stale"{{end}}>{{millis .HeartbeatAgeMillis}} ago</td>
<td>{{.Claims}}</td>
<td>{{.Completions}}</td>
<td>{{.RunsDone}}</td>
<td>{{.Expiries}}</td>
</tr>
{{end}}
</table>
{{if gt (len .Campaigns) 1}}
<table>
<tr><th class="l">campaign</th><th class="l">filter</th><th>prio</th><th>done</th><th>jobs</th><th>findings</th><th class="l">state</th></tr>
{{range .Campaigns}}
<tr>
<td class="l">{{.Name}}</td>
<td class="l">{{.Filter}}</td>
<td>{{.Priority}}</td>
<td>{{.Done}}</td>
<td>{{.Jobs}}</td>
<td>{{.Findings}}</td>
<td class="l">{{.State}}</td>
</tr>
{{end}}
</table>
{{end}}
{{if .Findings}}
<h1>findings — top {{len .Findings}} by trace count</h1>
<table>
<tr><th class="l">id</th><th class="l">app</th><th class="l">signature</th><th class="l">severity</th><th class="l">taxonomy</th><th>traces</th></tr>
{{range .Findings}}
<tr>
<td class="l">{{.ID}}</td>
<td class="l">{{.App}}{{with .Variant}}/{{.}}{{end}}</td>
<td class="l">{{.Signature}}</td>
<td class="l">{{.Severity}}</td>
<td class="l">{{.Taxonomy.Verdict}}</td>
<td>{{len .Traces}}</td>
</tr>
{{end}}
</table>
{{end}}
</body>
</html>
`))

// formatRate renders runs/sec with enough precision for both slow
// matrix sweeps and fast simulated runs.
func formatRate(r float64) string {
	if r >= 10 {
		return strconv.FormatFloat(r, 'f', 0, 64)
	}
	return strconv.FormatFloat(r, 'f', 2, 64)
}

// statusView decorates Status with the presentation-only fields the
// template needs.
type statusView struct {
	Status
	Pct     int
	Workers []workerView
	// Findings is the status page's findings section: the largest
	// finding records by trace count, aggregated as completions land.
	Findings []findings.Finding
}

// workerView decorates WorkerStatus with staleness against the TTL.
type workerView struct {
	WorkerStatus
	Stale bool
}

// StatusPage serves the self-refreshing HTML status page at
// GET /status: queue progress, per-worker leases and heartbeat age,
// throughput, campaign views, and the drain ETA. A template render
// error (a half-written response after the client hung up, or a
// template bug) is logged once per server rather than swallowed — and
// only once, because a dashboard refreshing every two seconds would
// otherwise repeat the same line forever.
func StatusPage(co *Coordinator) http.Handler {
	var renderErrOnce sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := co.Status()
		v := statusView{Status: st, Findings: co.TopFindings(10)}
		if st.Jobs > 0 {
			v.Pct = 100 * st.Done / st.Jobs
		}
		ttlMillis := co.LeaseTTL().Milliseconds()
		for _, ws := range st.Workers {
			v.Workers = append(v.Workers, workerView{
				WorkerStatus: ws,
				Stale:        ws.HeartbeatAgeMillis > ttlMillis,
			})
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := statusPage.Execute(w, v); err != nil {
			renderErrOnce.Do(func() {
				co.logf("coord: status page render failed: %v", err)
			})
		}
	})
}
