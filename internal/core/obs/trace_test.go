package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// decodedEvent mirrors the Chrome trace_event schema for the
// round-trip check.
type decodedEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// TestTraceRoundTrip writes a span tree, closes the file, and decodes
// it as strict JSON — the schema chrome://tracing and Perfetto load.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, err := StartTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.NameProcess("worker-test")
	tr.NameThread(0, "worker 0")

	base := time.Now()
	// A run span containing exec and compare children on one tid: the
	// nesting-by-containment shape every injection run produces.
	tr.Span(0, "run", "lpr/vulnerable#12", base, 10*time.Millisecond, map[string]string{
		"campaign": "lpr/vulnerable", "run": "12", "fault": "EAI-D3",
	})
	tr.Span(0, "run", "exec", base.Add(time.Millisecond), 6*time.Millisecond, nil)
	tr.Span(0, "run", "compare", base.Add(8*time.Millisecond), time.Millisecond, nil)

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and post-Close spans are dropped, not panics.
	tr.Span(0, "run", "late", base, time.Millisecond, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []decodedEvent
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace is not a strict JSON array: %v\n%s", err, b)
	}
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5 (2 metadata + 3 spans)", len(events))
	}
	if events[0].Ph != "M" || events[0].Args["name"] != "worker-test" {
		t.Fatalf("first event is not the process_name metadata: %+v", events[0])
	}
	run := events[2]
	if run.Ph != "X" || run.Name != "lpr/vulnerable#12" || run.Cat != "run" || run.Dur != 10000 {
		t.Fatalf("run span wrong: %+v", run)
	}
	if run.Args["campaign"] != "lpr/vulnerable" || run.Args["run"] != "12" {
		t.Fatalf("run span args wrong: %+v", run.Args)
	}
	exec, compare := events[3], events[4]
	// Children nest inside the parent by time containment on one tid.
	if exec.TID != run.TID || exec.TS < run.TS || exec.TS+exec.Dur > run.TS+run.Dur {
		t.Fatalf("exec span does not nest in run: run=%+v exec=%+v", run, exec)
	}
	if compare.TS < exec.TS+exec.Dur {
		t.Fatalf("compare overlaps exec: exec=%+v compare=%+v", exec, compare)
	}
}

// TestTraceConcurrent writes spans from many goroutines; -race plus
// the strict decode pin the writer's serialisation.
func TestTraceConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, err := StartTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Span(g, "run", "s", time.Now(), time.Microsecond, nil)
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []decodedEvent
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	if len(events) != goroutines*perG {
		t.Fatalf("events = %d, want %d", len(events), goroutines*perG)
	}
}

// TestTraceMinimumDuration: sub-microsecond spans are clamped to 1µs so
// they stay visible in viewers.
func TestTraceMinimumDuration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, err := StartTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.Span(0, "run", "tiny", time.Now(), 0, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	var events []decodedEvent
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatal(err)
	}
	if events[0].Dur != 1 {
		t.Fatalf("dur = %d, want clamped 1", events[0].Dur)
	}
}
