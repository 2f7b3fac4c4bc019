package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Tracer streams Chrome trace_event records to a file, one event per
// line inside a JSON array, so a fleet run recorded with `eptest -all
// -trace FILE` opens directly in chrome://tracing or Perfetto. Spans
// are "complete" events (ph "X") carrying explicit start timestamps
// and durations; events on one tid nest by time containment, which is
// how each injection run renders as a span tree (run ⊃ world/exec/
// compare) under its worker's row.
//
// Close finishes the array; a file from a crashed process lacks the
// closing bracket, which both Chrome and Perfetto accept. All methods
// are safe for concurrent use, and every method on a nil *Tracer is a
// no-op so instrumentation can run unconditionally.
type Tracer struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	start  time.Time
	events int64
	err    error
}

// Reserved tid rows for spans that belong to no dispatcher worker.
// Dispatcher workers use their worker index (0..Workers-1) as tid.
const (
	// TIDCoord is the coordinator-client lane: claim and renew spans.
	TIDCoord = 1000
	// TIDUpload is the async completion-uploader lane.
	TIDUpload = 1001
)

// traceEvent is one trace_event record. Timestamps and durations are
// microseconds, per the Chrome trace format.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// StartTrace opens (truncating) a trace file and returns its tracer.
func StartTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	t := &Tracer{f: f, w: bufio.NewWriterSize(f, 1<<16), start: time.Now()}
	if _, err := t.w.WriteString("[\n"); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	return t, nil
}

// write appends one event line. Callers hold t.mu.
func (t *Tracer) writeLocked(ev *traceEvent) {
	if t.err != nil || t.f == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if t.events > 0 {
		t.w.WriteString(",\n")
	}
	t.events++
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// ts converts a wall time to trace microseconds.
func (t *Tracer) ts(at time.Time) int64 { return at.Sub(t.start).Microseconds() }

// Span records one complete span on the tid row. start is the span's
// wall-clock begin; d its duration; args annotate it (campaign, run,
// worker ids — small bounded maps only).
func (t *Tracer) Span(tid int, cat, name string, start time.Time, d time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	dur := d.Microseconds()
	if dur < 1 {
		dur = 1 // zero-duration spans vanish in viewers
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeLocked(&traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: t.ts(start), Dur: dur,
		PID: os.Getpid(), TID: tid, Args: args,
	})
}

// NameProcess labels this process's row group in trace viewers —
// typically the worker's display name.
func (t *Tracer) NameProcess(name string) {
	t.metadata("process_name", 0, name)
}

// NameThread labels one tid row ("worker 3", "coord", "uploader").
func (t *Tracer) NameThread(tid int, name string) {
	t.metadata("thread_name", tid, name)
}

// metadata writes one ph "M" metadata event.
func (t *Tracer) metadata(kind string, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeLocked(&traceEvent{
		Name: kind, Ph: "M",
		PID: os.Getpid(), TID: tid,
		Args: map[string]string{"name": name},
	})
}

// Events returns how many events have been recorded.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Close terminates the JSON array and closes the file, returning the
// first error encountered anywhere in the tracer's lifetime.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return t.err
	}
	t.w.WriteString("\n]\n")
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if err := t.f.Close(); err != nil && t.err == nil {
		t.err = err
	}
	t.f = nil
	if t.err != nil {
		return fmt.Errorf("obs: trace: %w", t.err)
	}
	return nil
}
