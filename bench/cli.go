package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// BuildEptest compiles cmd/eptest from the checkout at root into dir
// and returns the binary's path.
func BuildEptest(root, dir string) (string, error) {
	bin := filepath.Join(dir, "eptest")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/eptest")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/eptest: %v\n%s", err, out)
	}
	return bin, nil
}

// cliRun is one finished eptest invocation as seen from outside: wall
// time, the child's CPU time and peak RSS from its rusage, and, when Go's
// gctrace was on, the number of garbage collections it ran.
type cliRun struct {
	Wall     time.Duration
	CPU      time.Duration
	MaxRSSKB int64
	GCs      int
}

// runCLI runs eptest in dir with its stdout sent to the file stdout —
// os.DevNull, as the repository's CI jobs do, or a regular file — and
// fails on a non-zero exit.
func runCLI(bin, dir string, args []string, stdout string, gctrace bool) (cliRun, error) {
	out, err := os.Create(stdout)
	if err != nil {
		return cliRun{}, err
	}
	defer out.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout = out
	cmd.Stderr = &stderr
	cmd.SysProcAttr = orphanKill()
	if gctrace {
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return cliRun{}, fmt.Errorf("eptest %s: %v\n%s", strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	r := cliRun{Wall: wall, CPU: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSKB = ru.Maxrss
	}
	if gctrace {
		sc := bufio.NewScanner(&stderr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "gc ") {
				r.GCs++
			}
		}
	}
	return r, nil
}

// orphanKill makes a started process receive SIGKILL when the process
// that started it dies, so a benchmark process killed at a deadline, or
// by whoever runs the benchmark, leaves no child running.
func orphanKill() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
