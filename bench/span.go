package bench

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Name is "layer.operation";
// the layer is the module the call enters. Req is the request the span
// serves — the pass or job label — shared by every span of that request.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Lane   int           `json:"lane"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// Layer is the module part of the span name.
func (s *Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Dur is the span's duration.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Lanes a span is drawn on. Spans on the main lane and the worker lanes
// make up a pass; server lanes handle requests that worker spans are
// already waiting on, so they are traced but never counted again.
const (
	laneMain   = 0
	laneServer = 100
)

// Recorder keeps spans in memory. All methods are safe for concurrent
// use and do nothing on a nil *Recorder, so untraced code paths pass
// nil instead of branching.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts an empty recorder; span times are offsets from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent, lane int, req string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Lane: lane, Req: req, Start: now, End: now})
	return len(r.spans)
}

// End closes the span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans, in id order.
func (r *Recorder) Spans() []Span { return r.Since(1) }

// Since returns a copy of the spans from id on, in id order.
func (r *Recorder) Since(id int) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans[id-1:]...)
}

// Durations returns the durations of every span called name.
func Durations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, spans[i].Dur())
		}
	}
	return out
}

// SelfTimes returns each span's self time, indexed like spans: its
// duration minus the part of it that its children cover. Children that
// run in parallel are counted once, as the union of their intervals.
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		var iv [][2]time.Duration
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[i] = s.Dur() - union(iv)
	}
	return self
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// AssignLanes draws the children of parent — spans whose worker the
// recorder could not know — on the fewest lanes, starting at first, so
// overlapping spans never share a row; descendants follow their
// ancestor's lane. It changes only how the trace is drawn.
func AssignLanes(spans []Span, parent, first int) {
	index := make(map[int]int, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
	}
	var top []int
	for i := range spans {
		if spans[i].Parent == parent {
			top = append(top, i)
		}
	}
	sort.Slice(top, func(a, b int) bool { return spans[top[a]].Start < spans[top[b]].Start })
	var ends []time.Duration
	for _, i := range top {
		lane := -1
		for l, e := range ends {
			if e <= spans[i].Start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(ends)
			ends = append(ends, 0)
		}
		ends[lane] = spans[i].End
		spans[i].Lane = first + lane
	}
	// Spans are recorded parent-first, so one pass in id order settles
	// every descendant.
	for i := range spans {
		if p, ok := index[spans[i].Parent]; ok && spans[i].Parent != parent {
			spans[i].Lane = spans[p].Lane
		}
	}
}

// chromeEvent is one Chrome trace_event record (timestamps in µs).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes spans as a Chrome trace_event JSON file that
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly; each
// span carries its id, parent and request in args.
func WriteChromeTrace(path, process string, spans []Span) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}}}
	lanes := map[int]bool{}
	for i := range spans {
		s := &spans[i]
		lanes[s.Lane] = true
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Req != "" {
			args["req"] = s.Req
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer(), Ph: "X", PID: 1, TID: s.Lane,
			TS: micros(s.Start), Dur: micros(s.Dur()), Args: args,
		})
	}
	for l := range lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: l, Args: map[string]any{"name": laneName(l)}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func laneName(l int) string {
	switch {
	case l == laneMain:
		return "bench"
	case l >= laneServer:
		return "server"
	}
	return "worker " + strconv.Itoa(l)
}
