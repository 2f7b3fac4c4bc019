package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
)

// formatFloat renders a float the way the Prometheus text format
// expects: shortest round-trip form, +Inf spelled out.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders one sample line's name{labels} prefix, with an
// optional extra label (histogram le) appended after the sorted set.
func seriesName(name, sig, extra string) string {
	switch {
	case sig == "" && extra == "":
		return name
	case sig == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + sig + "}"
	}
	return name + "{" + sig + "," + extra + "}"
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families in registration order,
// series in first-use order — deterministic for a fixed program, so
// the output is golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		sigs := append([]string(nil), f.order...)
		srs := make([]*series, len(sigs))
		for i, sig := range sigs {
			srs[i] = f.series[sig]
		}
		f.mu.Unlock()

		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for i, s := range srs {
			sig := sigs[i]
			switch f.typ {
			case typeCounter:
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, sig, ""), s.c.Value()); err != nil {
					return err
				}
			case typeGauge:
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, sig, ""), s.g.Value()); err != nil {
					return err
				}
			case typeHistogram:
				bounds, cum := s.h.Buckets()
				for bi, le := range bounds {
					extra := fmt.Sprintf("le=%q", formatFloat(le))
					if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name+"_bucket", sig, extra), cum[bi]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.name+"_sum", sig, ""), formatFloat(s.h.Sum())); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name+"_count", sig, ""), s.h.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler serves the registry in Prometheus text form — the body of
// GET /metrics on `eptest -serve-coord`.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// MetricsSchemaVersion identifies the JSON snapshot layout WriteJSON
// emits and `eptest -metrics-json` writes.
const MetricsSchemaVersion = "eptest-metrics/1"

// jsonBucket is one histogram bucket in the JSON snapshot.
type jsonBucket struct {
	LE    float64 `json:"le"` // +Inf encoded as the string below
	Count int64   `json:"count"`
}

// MarshalJSON encodes +Inf, which JSON numbers cannot carry, as the
// string "+Inf".
func (b jsonBucket) MarshalJSON() ([]byte, error) {
	le := any(b.LE)
	if math.IsInf(b.LE, 1) {
		le = "+Inf"
	}
	return json.Marshal(map[string]any{"le": le, "count": b.Count})
}

// jsonMetric is one series in the JSON snapshot.
type jsonMetric struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter and gauge readings.
	Value *int64 `json:"value,omitempty"`
	// Histogram fields.
	Count   *int64       `json:"count,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

// jsonSnapshot is the envelope of one -metrics-json dump.
type jsonSnapshot struct {
	Schema  string       `json:"schema"`
	Metrics []jsonMetric `json:"metrics"`
}

// snapshot collects every series into the JSON form, deterministic
// family and series order.
func (r *Registry) snapshot() jsonSnapshot {
	snap := jsonSnapshot{Schema: MetricsSchemaVersion, Metrics: []jsonMetric{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		sigs := append([]string(nil), f.order...)
		srs := make([]*series, len(sigs))
		for i, sig := range sigs {
			srs[i] = f.series[sig]
		}
		f.mu.Unlock()
		for _, s := range srs {
			m := jsonMetric{Name: f.name, Type: f.typ.String()}
			if len(s.labels) > 0 {
				m.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			switch f.typ {
			case typeCounter:
				v := s.c.Value()
				m.Value = &v
			case typeGauge:
				v := s.g.Value()
				m.Value = &v
			case typeHistogram:
				count := s.h.Count()
				sum := s.h.Sum()
				m.Count, m.Sum = &count, &sum
				bounds, cum := s.h.Buckets()
				for i := range bounds {
					m.Buckets = append(m.Buckets, jsonBucket{LE: bounds[i], Count: cum[i]})
				}
			}
			snap.Metrics = append(snap.Metrics, m)
		}
	}
	return snap
}

// WriteJSON renders the registry as the eptest-metrics/1 JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode metrics: %w", err)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteJSONFile renders the snapshot to path — the `-metrics-json
// FILE` dump a worker leaves behind after a suite run.
func (r *Registry) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Flat returns every counter and gauge as a name{labels} -> value map,
// for point lookups by series signature.
// Histograms contribute their _count and _sum.
func (r *Registry) Flat() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, m := range r.snapshot().Metrics {
		sig := ""
		if len(m.Labels) > 0 {
			ls := make([]Label, 0, len(m.Labels))
			for k, v := range m.Labels {
				ls = append(ls, Label{k, v})
			}
			sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
			sig = signature(ls)
		}
		switch {
		case m.Value != nil:
			out[seriesName(m.Name, sig, "")] = float64(*m.Value)
		case m.Count != nil:
			out[seriesName(m.Name+"_count", sig, "")] = float64(*m.Count)
			if m.Sum != nil {
				out[seriesName(m.Name+"_sum", sig, "")] = *m.Sum
			}
		}
	}
	return out
}
