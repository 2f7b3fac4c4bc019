package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestRun pins papertables' whole report: every line before the Section
// 3.3 step 9 block equals testdata/before-step9.golden, the block widens
// lpr's create-site campaign over at least two rounds to an interaction
// coverage of at least 0.6, and the last line says every measured value
// matches the paper.
func TestRun(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	code := run()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("run() = %d:\n%s", code, out)
	}

	golden, err := os.ReadFile("testdata/before-step9.golden")
	if err != nil {
		t.Fatal(err)
	}
	rest, ok := bytes.CutPrefix(out, golden)
	if !ok {
		t.Fatalf("the report before the step 9 block differs from testdata/before-step9.golden:\n%s", out)
	}
	m := regexp.MustCompile(`^\n== Section 3\.3 step 9: .*\n  .*: (\d+) rounds, final coverage ([0-9.]+) .*\n\nRESULT: (.*)\n$`).FindSubmatch(rest)
	if m == nil {
		t.Fatalf("the report after the golden lines is not the step 9 block and the result:\n%s", rest)
	}
	if rounds, _ := strconv.Atoi(string(m[1])); rounds < 2 {
		t.Errorf("step 9 took %d rounds, want at least 2", rounds)
	}
	if ic, _ := strconv.ParseFloat(string(m[2]), 64); ic < 0.6 {
		t.Errorf("step 9 ended at interaction coverage %v, want at least 0.6", ic)
	}
	if string(m[3]) != "all measured values match the paper" {
		t.Errorf("last line: RESULT: %s", m[3])
	}
}
