// The findings a suite run folds and exports with -findings, and the
// -diff mode: semantic comparison of two findings exports, with
// exit-code gating for CI (see docs/FINDINGS.md).

package main

import (
	"fmt"
	"io"

	"repro/internal/core/atomicfile"
	"repro/internal/core/findings"
	"repro/internal/core/sched"
)

// findingsFold is the findings fold of a suite result, run on its own
// goroutine while the caller renders the report, which reads the same
// result: findings.FromSuite, and the export's canonical bytes when
// -findings names a file.
type findingsFold struct {
	path   string
	done   chan struct{}
	report *findings.Report
	export []byte
	err    error
}

// startFindings starts the fold of sr, exporting to path unless it is
// empty. Nothing may modify sr until wait returns.
func startFindings(sr *sched.SuiteResult, path string) *findingsFold {
	f := &findingsFold{path: path, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.report = findings.FromSuite(sr)
		if path != "" {
			f.export, f.err = f.report.Encode()
		}
	}()
	return f
}

// wait returns the folded report once the fold is done.
func (f *findingsFold) wait() *findings.Report {
	<-f.done
	return f.report
}

// write waits for the fold and, when -findings named a file, replaces
// it whole with the export and says so on stdout.
func (f *findingsFold) write(stdout io.Writer) error {
	rep := f.wait()
	if f.path == "" {
		return nil
	}
	if f.err != nil {
		return f.err
	}
	if err := atomicfile.Write(f.path, f.export, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d finding record(s) to %s\n", len(rep.Findings), f.path)
	return nil
}

// runDiff loads two findings files, diffs them semantically, and
// renders the drift. The exit code is 0 for an ungated (or drift-free)
// diff, 1 when a class named by -diff-fail-on is non-empty, and 2 for
// unreadable inputs or a malformed gate spec.
func runDiff(oldPath, newPath, failOn string, stdout, stderr io.Writer) int {
	gate, err := findings.ParseFailOn(failOn)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	old, err := findings.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	new, err := findings.ReadFile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	d := findings.DiffReports(old, new)
	d.Render(stdout)
	if d.Fails(gate) {
		fmt.Fprintf(stderr, "eptest: findings gate (-diff-fail-on %s) tripped\n", failOn)
		return 1
	}
	return 0
}
