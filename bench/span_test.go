package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sp builds a span with times in milliseconds.
func sp(id, parent int, name string, lane int, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: name, Lane: lane,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Self time subtracts the union of the children's intervals, clipped to
// the parent: overlapping children count once.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		sp(1, 0, "bench.pass", 0, 0, 100),
		sp(2, 1, "a.x", 0, 10, 40),
		sp(3, 1, "b.x", 0, 30, 60),
		sp(4, 2, "c.x", 0, 15, 20),
		sp(5, 1, "d.x", 0, 90, 120),
	}
	want := []time.Duration{ms(40), ms(25), ms(30), ms(5), ms(30)}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
}

func TestRecorderNilAndNesting(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Begin("x.y", 0, 0, ""); id != 0 {
		t.Fatalf("nil recorder Begin = %d", id)
	}
	nilRec.End(1)
	if nilRec.Spans() != nil {
		t.Fatal("nil recorder has spans")
	}
	rec := NewRecorder()
	root := rec.Begin("bench.pass", 0, laneMain, "pass-1")
	child := rec.Begin("findings.fold", root, laneMain, "pass-1")
	rec.End(child)
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Layer() != "findings" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Fatalf("child %+v not inside root %+v", spans[1], spans[0])
	}
	if got := rec.Since(child); len(got) != 1 || got[0].ID != child {
		t.Fatalf("Since(%d) = %+v", child, got)
	}
}

// A suite pass: the main lane waits while two worker lanes dispatch; the
// run time the dispatcher reports in total counts for inject.
func TestAccountSuitePass(t *testing.T) {
	pt := &passTrace{
		Lanes:   2,
		RunTime: ms(100),
		Spans: []Span{
			sp(1, 0, "bench.pass", laneMain, 0, 100),
			sp(2, 1, "sched.dispatch", laneMain, 10, 90),
			sp(3, 2, "inject.plan", -1, 10, 30),
			sp(4, 3, "sched.build", -1, 10, 12),
			sp(5, 3, "store.get", -1, 14, 18),
			sp(6, 2, "inject.plan", -1, 12, 20),
			sp(7, 1, "findings.fold", laneMain, 90, 95),
			sp(8, 1, "bench.check", laneMain, 95, 100),
		},
	}
	a := pt.account()
	want := map[string]time.Duration{"bench": ms(15), "findings": ms(5), "inject": ms(122), "sched": ms(2), "store": ms(4)}
	for l, d := range want {
		if a.layers[l] != d {
			t.Errorf("layer %s = %v, want %v", l, a.layers[l], d)
		}
	}
	if a.total != ms(180) || a.laneDispatch != ms(160) || a.work != ms(128) {
		t.Errorf("total %v, lane dispatch %v, work %v; want 180ms, 160ms, 128ms", a.total, a.laneDispatch, a.work)
	}
}

// A fleet pass: server spans are inside the workers' waits and are not
// counted again, and waiting for a claim is not work.
func TestAccountFleetPass(t *testing.T) {
	pt := &passTrace{
		Lanes: 1,
		Spans: []Span{
			sp(1, 0, "bench.pass", laneMain, 0, 100),
			sp(2, 1, "sched.dispatch", laneMain, 0, 100),
			sp(3, 2, "sched.worker", 1, 0, 100),
			sp(4, 3, "coord.next", 1, 0, 20),
			sp(5, 0, "coord.serve_claim", laneServer, 5, 15),
			sp(6, 3, "inject.job", 1, 20, 90),
			sp(7, 6, "storehttp.put", 1, 80, 85),
			sp(8, 6, "coord.complete", 1, 85, 90),
		},
	}
	a := pt.account()
	want := map[string]time.Duration{"sched": ms(10), "coord": ms(25), "inject": ms(60), "storehttp": ms(5)}
	for l, d := range want {
		if a.layers[l] != d {
			t.Errorf("layer %s = %v, want %v", l, a.layers[l], d)
		}
	}
	if a.total != ms(100) || a.work != ms(70) {
		t.Errorf("total %v, work %v; want 100ms, 70ms", a.total, a.work)
	}
	m := traceMetrics([]Pass{{Wall: ms(100)}}, []Pass{{Wall: ms(110)}}, []*passTrace{pt})
	if d := m["bench.trace_overhead_frac"] - 0.1; d > 1e-9 || d < -1e-9 {
		t.Errorf("trace overhead = %v, want 0.1", m["bench.trace_overhead_frac"])
	}
	if m["trace.attributed_frac"] != 1 || m["self.coord_frac"] != 0.25 || m["self.store_frac"] != 0 {
		t.Errorf("shares: attributed %v, coord %v, store %v", m["trace.attributed_frac"], m["self.coord_frac"], m["self.store_frac"])
	}
}

func TestAssignLanes(t *testing.T) {
	spans := []Span{
		sp(1, 0, "sched.dispatch", laneMain, 0, 100),
		sp(2, 1, "inject.plan", -1, 0, 10),
		sp(3, 1, "inject.plan", -1, 5, 15),
		sp(4, 3, "sched.build", -1, 5, 6),
		sp(5, 1, "inject.plan", -1, 12, 20),
	}
	AssignLanes(spans, 1, 1)
	for i, want := range []int{laneMain, 1, 2, 2, 1} {
		if spans[i].Lane != want {
			t.Errorf("span %d on lane %d, want %d", spans[i].ID, spans[i].Lane, want)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []Span{sp(1, 0, "bench.pass", laneMain, 0, 10), sp(2, 1, "coord.serve_claim", laneServer, 2, 3)}
	spans[0].Req = "pass-1"
	if err := WriteChromeTrace(path, "test", spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Name == "bench.pass" && (ev.Dur != 10000 || ev.Args["req"] != "pass-1") {
				t.Errorf("root event %+v", ev)
			}
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2", complete)
	}
}
