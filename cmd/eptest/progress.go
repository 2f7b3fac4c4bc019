package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core/sched"
)

// isTerminal reports whether w is an interactive terminal — the gate
// between the live progress renderer and the plain log lines. It asks
// the kernel (isTTY, per platform) rather than trusting the file mode:
// /dev/null is a character device too, and redrawing the bars into it
// on every event slows a redirected matrix run by an order of
// magnitude.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return false
	}
	tty := false
	if err := rc.Control(func(fd uintptr) { tty = isTTY(fd) }); err != nil {
		return false
	}
	return tty
}

// rowState is one campaign's lifecycle position in the progress view.
type rowState int

const (
	rowWaiting rowState = iota
	rowRunning
	rowDone
	rowCached
	rowFailed
)

// progressRow is one campaign's bar.
type progressRow struct {
	label       string
	state       rowState
	done, total int
	err         error
}

// progressRenderer draws live per-campaign progress bars for `eptest
// -all` on a terminal, driven by the dispatcher's serialised event
// stream. Every event redraws the whole block in place (cursor-up +
// clear-line), so the bars update smoothly while jobs interleave; the
// final frame is left on screen above the suite report.
type progressRenderer struct {
	w     io.Writer
	rows  []progressRow
	index map[string]int
	drawn bool
}

// barWidth is the bar's interior width in cells.
const barWidth = 24

// newProgressRenderer sizes the display for the job list, one row per
// job in job order, and is ready to receive Handle calls.
func newProgressRenderer(w io.Writer, jobs []sched.Job) *progressRenderer {
	p := &progressRenderer{w: w, rows: make([]progressRow, len(jobs)), index: make(map[string]int, len(jobs))}
	for i, j := range jobs {
		p.rows[i] = progressRow{label: j.Label()}
		p.index[j.Label()] = i
	}
	return p
}

// Handle consumes one suite event. The dispatcher serialises event
// delivery, so Handle needs no locking.
func (p *progressRenderer) Handle(ev sched.Event) {
	i, ok := p.index[ev.Job.Label()]
	if !ok {
		return
	}
	r := &p.rows[i]
	switch ev.Kind {
	case sched.EventPlanned:
		r.state = rowRunning
		r.total = ev.Total
	case sched.EventProgress:
		r.done, r.total = ev.Done, ev.Total
	case sched.EventDone:
		r.done, r.total = ev.Done, ev.Total
		switch {
		case ev.Err != nil:
			r.state = rowFailed
			r.err = ev.Err
		case ev.Cached:
			r.state = rowCached
		default:
			r.state = rowDone
		}
	}
	p.draw()
}

// Close paints the final frame (covering the no-event edge case) and
// leaves the cursor below the block, where the suite report begins.
func (p *progressRenderer) Close() {
	if !p.drawn {
		p.draw()
	}
}

// draw repaints the whole block in place.
func (p *progressRenderer) draw() {
	var b strings.Builder
	if p.drawn {
		fmt.Fprintf(&b, "\x1b[%dA", len(p.rows))
	}
	p.drawn = true
	for i := range p.rows {
		b.WriteString("\r\x1b[2K")
		b.WriteString(p.rows[i].line())
		b.WriteByte('\n')
	}
	io.WriteString(p.w, b.String())
}

// line renders one row.
func (r *progressRow) line() string {
	switch r.state {
	case rowWaiting:
		return fmt.Sprintf("  %-24s [%s]       waiting", r.label, strings.Repeat(" ", barWidth))
	case rowFailed:
		return fmt.Sprintf("  %-24s FAILED: %v", r.label, r.err)
	case rowCached:
		return fmt.Sprintf("  %-24s [%s] %3d/%-3d cached", r.label, strings.Repeat("#", barWidth), r.done, r.total)
	}
	filled := 0
	if r.total > 0 {
		filled = r.done * barWidth / r.total
	} else if r.state == rowDone {
		filled = barWidth
	}
	bar := strings.Repeat("#", filled) + strings.Repeat("-", barWidth-filled)
	suffix := ""
	if r.state == rowDone {
		suffix = " done"
	}
	return fmt.Sprintf("  %-24s [%s] %3d/%-3d%s", r.label, bar, r.done, r.total, suffix)
}
