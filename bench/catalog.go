package bench

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/sched"
)

// Catalog is the job list a workload runs and the output its suite must
// produce, which every pass is checked against.
type Catalog struct {
	// Matrix selects the expanded campaign matrix over the base catalog.
	Matrix bool
	// Filter narrows the catalog with the CLI's -filter glob.
	Filter string
	// Runs is the number of injection runs one pass delivers.
	Runs int
	// Findings is the hex sha256 of the suite's findings export.
	Findings string
}

// The two catalogs the workloads run. The base findings equal
// cmd/eptest/testdata/golden/findings-base.json; the matrix export is
// the same in process, through the CLI's -findings, and in the fleet.
var (
	BaseCatalog = Catalog{
		Runs:     273,
		Findings: "544db63bf887917e3b1e636d719cb87e052ada2886b876239fa9568ff7f9c9d0",
	}
	MatrixCatalog = Catalog{
		Matrix:   true,
		Runs:     11212,
		Findings: "99ca24fc3255501478757fd746e84735ec9f3d4637c5d5efc7bd13f7cbcee2eb",
	}
)

// Jobs builds the catalog's job list in an order permuted by seed. The
// order changes how work lands on workers, never the findings, which
// are folded order-insensitively.
func (c Catalog) Jobs(seed int64) []sched.Job {
	jobs := apps.SuiteJobs()
	if c.Matrix {
		jobs = matrix.SuiteJobs()
	}
	jobs = append([]sched.Job(nil), sched.FilterJobs(jobs, c.Filter)...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// Labels returns the job labels — the catalog a coordinator serves.
func Labels(jobs []sched.Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Label()
	}
	return out
}

// CLIArgs are the eptest flags that select the catalog.
func (c Catalog) CLIArgs() []string {
	args := []string{"-all"}
	if c.Matrix {
		args = append(args, "-matrix")
	}
	if c.Filter != "" {
		args = append(args, "-filter", c.Filter)
	}
	return args
}

// CheckFindings compares a findings export with the catalog's pinned
// digest.
func (c Catalog) CheckFindings(export []byte) error {
	sum := sha256.Sum256(export)
	if got := hex.EncodeToString(sum[:]); got != c.Findings {
		return fmt.Errorf("findings export sha256 %s, want %s", got[:16], c.Findings[:16])
	}
	return nil
}

// CheckRuns compares a pass's delivered run count with the catalog's.
func (c Catalog) CheckRuns(runs int) error {
	if runs != c.Runs {
		return fmt.Errorf("pass delivered %d runs, want %d", runs, c.Runs)
	}
	return nil
}

// Verify checks an in-process suite result and the findings export it
// folded to: no campaign failed, the run count is the catalog's, and
// the export has the pinned digest.
func (c Catalog) Verify(sr *sched.SuiteResult, export []byte) error {
	runs := 0
	for _, cr := range sr.Campaigns {
		if cr.Err != nil {
			return fmt.Errorf("campaign %s failed: %v", cr.Job.Label(), cr.Err)
		}
		runs += len(cr.Result.Injections)
	}
	if err := c.CheckRuns(runs); err != nil {
		return err
	}
	return c.CheckFindings(export)
}

// ReportRuns reads the suite summary table at the top of an `eptest
// -all` report and returns its campaign count and total injected runs.
func ReportRuns(report []byte) (campaigns, runs int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(report))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "campaign ") {
		return 0, 0, fmt.Errorf("report does not start with the suite table")
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			return campaigns, runs, nil
		}
		f := strings.Fields(line)
		if len(f) < 3 || f[1] == "FAILED:" {
			return 0, 0, fmt.Errorf("suite table row %q", line)
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return 0, 0, fmt.Errorf("suite table row %q: %v", line, err)
		}
		campaigns++
		runs += n
	}
	return 0, 0, fmt.Errorf("suite table is not terminated")
}
