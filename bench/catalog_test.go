package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden reads a file of the CLI's golden outputs.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "cmd", "eptest", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The pinned base digest is the CLI's golden findings export, and the
// pinned run count is the golden report's.
func TestBaseCatalogMatchesGoldens(t *testing.T) {
	if err := BaseCatalog.CheckFindings(golden(t, "findings-base.json")); err != nil {
		t.Fatal(err)
	}
	campaigns, runs, err := ReportRuns(golden(t, "suite-base.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if campaigns != 20 || BaseCatalog.CheckRuns(runs) != nil {
		t.Fatalf("golden base report: %d campaigns, %d runs; want 20, %d", campaigns, runs, BaseCatalog.Runs)
	}
	if err := BaseCatalog.CheckFindings([]byte("{}\n")); err == nil {
		t.Fatal("a wrong export passed the check")
	}
}

func TestReportRunsRejectsFailures(t *testing.T) {
	for _, report := range []string{
		"",
		"suite summary\n",
		"campaign                  points  injected\nlpr/vulnerable FAILED: boom\n\n",
		"campaign                  points  injected\nlpr/vulnerable 4 many\n\n",
		"campaign                  points  injected\nlpr/vulnerable 4 18\n",
	} {
		if _, _, err := ReportRuns([]byte(report)); err == nil {
			t.Errorf("ReportRuns(%q) accepted a malformed report", report)
		}
	}
}

func TestJobsPermutedBySeed(t *testing.T) {
	a, b, c := Labels(BaseCatalog.Jobs(1)), Labels(BaseCatalog.Jobs(1)), Labels(BaseCatalog.Jobs(2))
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("one seed gave two orders")
	}
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatal("two seeds gave one order")
	}
	if len(a) != 20 {
		t.Fatalf("%d base jobs, want 20", len(a))
	}
}
