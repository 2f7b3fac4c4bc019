package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core/sched"
)

// progressJobs is a tiny fixed job list for renderer tests; Build is
// never invoked.
func progressJobs() []sched.Job {
	return []sched.Job{
		{Name: "alpha", Variant: "vulnerable"},
		{Name: "beta", Variant: "fixed"},
	}
}

// TestProgressRendererFrames drives the renderer through a campaign
// lifecycle and checks the painted frames: initial waiting rows, an
// in-place repaint per event, and the terminal states.
func TestProgressRendererFrames(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	jobs := progressJobs()
	p := newProgressRenderer(&out, jobs)

	p.Handle(sched.Event{Kind: sched.EventPlanned, Job: jobs[0], Total: 4})
	first := out.String()
	if strings.Contains(first, "\x1b[2A") {
		t.Error("first frame moved the cursor up before anything was drawn")
	}
	for _, want := range []string{"alpha/vulnerable", "beta/fixed", "waiting", "  0/4"} {
		if !strings.Contains(first, want) {
			t.Errorf("first frame missing %q:\n%q", want, first)
		}
	}

	p.Handle(sched.Event{Kind: sched.EventProgress, Job: jobs[0], Done: 2, Total: 4})
	p.Handle(sched.Event{Kind: sched.EventDone, Job: jobs[0], Done: 4, Total: 4})
	p.Handle(sched.Event{Kind: sched.EventPlanned, Job: jobs[1], Total: 3})
	p.Handle(sched.Event{Kind: sched.EventDone, Job: jobs[1], Done: 3, Total: 3, Cached: true})
	p.Close()
	got := out.String()
	for _, want := range []string{
		"\x1b[2A",      // in-place repaint over both rows
		"\x1b[2K",      // clear-line per row
		"############", // a part-filled or full bar
		"4/4   done",
		"3/3   cached",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frames missing %q:\n%q", want, got)
		}
	}
}

// TestProgressRendererFailure renders a planning failure inline.
func TestProgressRendererFailure(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	jobs := progressJobs()
	p := newProgressRenderer(&out, jobs)
	p.Handle(sched.Event{Kind: sched.EventDone, Job: jobs[0], Err: errors.New("no world factory")})
	if !strings.Contains(out.String(), "FAILED: no world factory") {
		t.Errorf("failure frame:\n%q", out.String())
	}
}

// TestProgressRendererCloseWithoutEvents paints the empty frame so the
// report never collides with half-initialised terminal state.
func TestProgressRendererCloseWithoutEvents(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	p := newProgressRenderer(&out, progressJobs())
	p.Close()
	if n := strings.Count(out.String(), "waiting"); n != 2 {
		t.Errorf("close painted %d waiting rows, want 2:\n%q", n, out.String())
	}
}

// TestIsTerminal pins the renderer gate: buffers, regular files, pipes
// and the null device are not terminals, so piped, redirected and CI
// output keeps the plain log lines. /dev/null is a character device, so
// a file-mode check alone would take it for a terminal. A pseudo-terminal
// master is one.
func TestIsTerminal(t *testing.T) {
	t.Parallel()
	if isTerminal(&bytes.Buffer{}) {
		t.Error("a bytes.Buffer is not a terminal")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if isTerminal(f) {
		t.Error("a regular file is not a terminal")
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if isTerminal(null) {
		t.Errorf("%s is not a terminal", os.DevNull)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if isTerminal(w) {
		t.Error("a pipe is not a terminal")
	}
	// The positive case: a pseudo-terminal master answers the terminal
	// ioctl on the platforms that have one.
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		return
	}
	ptm, err := os.OpenFile("/dev/ptmx", os.O_RDWR, 0)
	if err != nil {
		t.Skipf("no pseudo-terminal available: %v", err)
	}
	defer ptm.Close()
	if !isTerminal(ptm) {
		t.Error("a pseudo-terminal master is a terminal")
	}
}
