package bench

import "time"

// traceLayers are the layers a traced pass's time is attributed to, one
// self-time share metric each.
var traceLayers = []string{"bench", "sched", "inject", "store", "storehttp", "coord", "findings", "report"}

// waitSpans are worker-lane spans during which the worker waits for the
// coordinator instead of working: they count as the coordinator's time
// but not as parallel work.
var waitSpans = map[string]bool{"coord.next": true, "coord.flush": true, "sched.worker": true}

// accounting is where one traced pass spent its lane time. A pass runs
// on the main lane, except while it dispatches, when its worker lanes
// run and the main lane only waits; so its lane time is the pass wall
// less the dispatch window, plus the window once per worker lane.
type accounting struct {
	layers map[string]time.Duration
	// total is the pass's lane time; work is the part of the worker
	// lanes' time spent on jobs rather than waiting or idle.
	total, work, laneDispatch time.Duration
}

// account attributes the pass's span self-times to their layers. Server
// spans are skipped — a worker span is already waiting on them — and so
// is the main lane's wait for the dispatch. The injection runs, which
// the dispatcher reports only as a total, count for the inject layer.
// Time left over is dispatcher overhead and idle workers.
func (pt *passTrace) account() accounting {
	spans := pt.Spans
	self := SelfTimes(spans)
	a := accounting{layers: make(map[string]time.Duration)}
	pos := make(map[int]int, len(spans))
	below := make([]bool, len(spans))
	var pass, dispatch time.Duration
	for i := range spans {
		s := &spans[i]
		pos[s.ID] = i
		if p, ok := pos[s.Parent]; ok {
			below[i] = below[p] || spans[p].Name == "sched.dispatch"
		}
		switch {
		case s.Lane >= laneServer:
			continue
		case s.Name == "sched.dispatch":
			dispatch = s.Dur()
			continue
		case s.Name == "bench.pass":
			pass = s.Dur()
		}
		a.layers[s.Layer()] += self[i]
		if below[i] && !waitSpans[s.Name] {
			a.work += self[i]
		}
	}
	a.layers["inject"] += pt.RunTime
	a.work += pt.RunTime
	a.laneDispatch = time.Duration(pt.Lanes) * dispatch
	a.total = pass - dispatch + a.laneDispatch
	return a
}

// traceMetrics derives the per-layer metrics that come from the traced
// passes, given the in-process passes run alternately without and with
// tracing.
func traceMetrics(untraced, traced []Pass, pts []*passTrace) map[string]float64 {
	layers := make(map[string]time.Duration)
	var total, work, laneDispatch time.Duration
	var plans, steals, builds []float64
	var gets, hits int64
	for _, pt := range pts {
		a := pt.account()
		for l, d := range a.layers {
			layers[l] += d
		}
		total += a.total
		work += a.work
		laneDispatch += a.laneDispatch
		plans = append(plans, float64(pt.Plans))
		steals = append(steals, float64(pt.Steals))
		builds = append(builds, durations(Durations(pt.Spans, "sched.build"), micros)...)
		gets += pt.CacheGets
		hits += pt.CacheHits
	}
	m := map[string]float64{
		"bench.trace_overhead_frac": Median(walls(traced))/Median(walls(untraced)) - 1,
		"sched.parallel_eff":        work.Seconds() / laneDispatch.Seconds(),
		"sched.plans":               Median(plans),
		"sched.steals":              Median(steals),
		"sched.build_us_p50":        Median(builds),
		"store.hit_ratio":           0,
	}
	if gets > 0 {
		m["store.hit_ratio"] = float64(hits) / float64(gets)
	}
	var attributed time.Duration
	for l, d := range layers {
		attributed += d
		m["self."+l+"_frac"] = d.Seconds() / total.Seconds()
	}
	for _, l := range traceLayers {
		if _, ok := m["self."+l+"_frac"]; !ok {
			m["self."+l+"_frac"] = 0
		}
	}
	m["trace.attributed_frac"] = attributed.Seconds() / total.Seconds()
	return m
}

// walls returns the passes' wall times in milliseconds.
func walls(ps []Pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = millis(p.Wall)
	}
	return out
}
