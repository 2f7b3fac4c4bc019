package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/coord"
)

// fakeClock is a coordinator clock that moves only when a test
// advances it, so lease expiry happens exactly when the test says.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// syncBuffer is a bytes.Buffer safe for the server goroutine to write
// while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startCoordServer launches `eptest -serve-coord` on an ephemeral port
// in-process — short lease so abandoned claims requeue within the
// test's patience — and returns its base URL.
func startCoordServer(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	args := append([]string{"-serve-coord", "127.0.0.1:0", "-cache", dir, "-lease", "300ms"}, extra...)
	return awaitCoordServer(t, func(out, errb io.Writer) { run(args, out, errb) })
}

// awaitCoordServer runs serve, a coordinator server on an ephemeral
// port, in the background and returns its base URL once it announces
// it.
func awaitCoordServer(t *testing.T, serve func(out, errb io.Writer)) string {
	t.Helper()
	var out, errb syncBuffer
	go serve(&out, &errb)
	re := regexp.MustCompile(`listening on ([0-9.:]+) `)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1]
		}
		if s := errb.String(); s != "" {
			t.Fatalf("coordinator failed to start: %s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never announced its address; stdout %q", out.String())
	return ""
}

// waitMergedArtifact waits for the merged artifact a coordinator over
// store dir writes asynchronously once its queue drains, and returns
// its path. Tests whose queue drains wait for it before returning, so
// the temp-dir cleanup never races the write.
func waitMergedArtifact(t *testing.T, dir string) string {
	t.Helper()
	artifact := filepath.Join(dir, "shards", "shard-1-of-1.json")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(artifact); err == nil {
			return artifact
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never wrote the merged artifact")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordElasticFlow is the CLI acceptance test for the distributed
// coordinator: one of two workers dies mid-run (here: a raw client
// that claims jobs and goes silent, exactly the state SIGKILL leaves),
// the surviving `-coord-url` worker drains the queue through
// lease-expiry requeues, and the merged report the coordinator
// assembles is byte-identical to a single-process `eptest -all` over
// the same slice. A second coordinator generation over the same store
// then replays everything source-level from the shared cache.
//
// The first coordinator runs on a fake clock, advanced once, past the
// doomed worker's leases, before the survivor starts. So exactly those
// two leases expire, however slowly a loaded machine runs the
// survivor: its own leases cannot.
func TestCoordElasticFlow(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const token = "s3cret"
	clk := &fakeClock{now: time.Now()}
	url := awaitCoordServer(t, func(out, errb io.Writer) {
		runServeCoord("127.0.0.1:0", dir, false, "lpr*", 300*time.Millisecond,
			coord.DefaultCampaignRetention, token, "", clk.Now, out, errb)
	})

	var full, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*"}, &full, &errb); code != 0 {
		t.Fatalf("-all exit = %d, stderr = %s", code, errb.String())
	}

	// The doomed worker: registers, claims two jobs, never completes
	// or renews. Its leases expire and requeue.
	doomed, err := coord.Dial(url, coord.WithToken(token))
	if err != nil {
		t.Fatal(err)
	}
	catalog := []string{"lpr/vulnerable", "lpr/fixed", "lpr-create-site/vulnerable", "lpr-create-site/fixed"}
	if err := doomed.Register("doomed", catalog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, status, err := doomed.Claim(); err != nil || status != coord.ClaimGranted {
			t.Fatalf("doomed claim = (%v, %v)", status, err)
		}
	}

	clk.Advance(time.Second)

	// The survivor drains everything, including the requeued jobs.
	var worker, werr bytes.Buffer
	code := run([]string{"-all", "-j", "4", "-filter", "lpr*",
		"-coord-url", url, "-worker", "survivor", "-auth-token", token}, &worker, &werr)
	if code != 0 {
		t.Fatalf("worker exit = %d, stderr = %s", code, werr.String())
	}
	wout := worker.String()
	if !strings.Contains(wout, "coordinator: 4 job(s) — 4 done") {
		t.Errorf("worker coordinator section:\n%s", wout)
	}
	if !strings.Contains(wout, "2 requeue(s) after lease expiry") {
		t.Errorf("worker output does not show the doomed worker's requeues:\n%s", wout)
	}

	// The coordinator writes the merged artifact asynchronously on
	// drain; wait for it, then demand byte-identity with -all.
	artifact := waitMergedArtifact(t, dir)
	var merged, merr bytes.Buffer
	if code := run([]string{"-merge", dir}, &merged, &merr); code != 0 {
		t.Fatalf("-merge exit = %d, stderr = %s", code, merr.String())
	}
	got := merged.String()
	i := strings.Index(got, "merged from")
	if i < 0 {
		t.Fatalf("merge output missing the merged-shard section:\n%s", got)
	}
	if want := full.String(); strings.TrimSuffix(got[:i], "\n") != want {
		t.Errorf("merged coordinator report differs from -all:\n--- all ---\n%s\n--- merged ---\n%s", want, got[:i])
	}

	// Restart semantics first: a second coordinator over the same
	// store resumes the drained queue from its journal instead of
	// re-opening it (and, drained, rewrites the merged artifact).
	var resumedOut, resumedErr syncBuffer
	go run([]string{"-serve-coord", "127.0.0.1:0", "-cache", dir, "-lease", "300ms",
		"-filter", "lpr*", "-auth-token", token}, &resumedOut, &resumedErr)
	rdl := time.Now().Add(5 * time.Second)
	for !strings.Contains(resumedOut.String(), "merged artifact written") {
		if time.Now().After(rdl) {
			t.Fatalf("restarted coordinator did not resume from journal and rewrite the artifact; stdout %q stderr %q",
				resumedOut.String(), resumedErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(resumedOut.String(), "4 done, 0 claimed, 0 pending of 4 jobs") {
		t.Errorf("resumed coordinator state:\n%s", resumedOut.String())
	}

	// Elastic second generation: the queue is durable now, so starting
	// a genuinely fresh generation means retiring the old journal.
	// With it gone, every campaign replays source-level from the
	// shared cache the first generation populated. The artifact goes
	// too, so the wait below sees this generation's drain write.
	for _, p := range []string{filepath.Join(dir, "coord", "journal.jsonl"), artifact} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	url2 := startCoordServer(t, dir, "-filter", "lpr*", "-auth-token", token)
	var warm bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*",
		"-coord-url", url2, "-worker", "warm", "-auth-token", token}, &warm, &werr); code != 0 {
		t.Fatalf("warm worker exit = %d, stderr = %s", code, werr.String())
	}
	if !strings.Contains(warm.String(), "result cache: 4/4 campaigns replayed (100.0% hits)") {
		t.Errorf("warm worker cache section:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "source-fingerprint hit") {
		t.Errorf("warm worker replays were not source-level:\n%s", warm.String())
	}
	if suiteReport(warm.String()) != suiteReport(worker.String()) {
		t.Error("suite report differs between cold and warm coordinator runs")
	}
	waitMergedArtifact(t, dir)
}

// TestCoordRefusesShardUpload pins that the coordinator's listener
// carries no shard-upload route: a valid shard artifact PUT to it is
// refused and never lands in the store, so after the queue drains
// shards/ holds only the coordinator's own 1-of-1 artifact and -merge
// renders it. The open GET /v1/meta liveness probe answers on the same
// listener.
func TestCoordRefusesShardUpload(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	url := startCoordServer(t, dir, "-filter", "lpr*")

	resp, err := http.Get(url + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/meta = %s", resp.Status)
	}

	// A well-formed artifact for shard 1 of 2 of the same catalog.
	local := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*", "-shard", "1/2", "-cache", local}, &out, &errb); code != 0 {
		t.Fatalf("local shard exit = %d, stderr = %s", code, errb.String())
	}
	body, err := os.ReadFile(filepath.Join(local, "shards", "shard-1-of-2.json"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url+"/v1/shards/1-of-2", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Errorf("shard upload accepted with %s, want refusal", resp.Status)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "shards", "*")); len(names) != 0 {
		t.Errorf("shards/ after the refused upload = %v, want empty", names)
	}

	out.Reset()
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*", "-coord-url", url}, &out, &errb); code != 0 {
		t.Fatalf("worker exit = %d, stderr = %s", code, errb.String())
	}
	artifact := waitMergedArtifact(t, dir)
	if names, _ := filepath.Glob(filepath.Join(dir, "shards", "*")); len(names) != 1 || names[0] != artifact {
		t.Errorf("shards/ after drain = %v, want only %s", names, artifact)
	}
	if code := run([]string{"-merge", dir}, &out, &errb); code != 0 {
		t.Fatalf("-merge exit = %d, stderr = %s", code, errb.String())
	}
}

// TestCoordWorkerRejectsWrongToken pins the auth failure mode: a
// worker with the wrong bearer token is refused at register time with
// the 401, before any work happens.
func TestCoordWorkerRejectsWrongToken(t *testing.T) {
	t.Parallel()
	url := startCoordServer(t, t.TempDir(), "-filter", "lpr*", "-auth-token", "right")
	var out, errb bytes.Buffer
	code := run([]string{"-all", "-filter", "lpr*", "-coord-url", url, "-auth-token", "wrong"}, &out, &errb)
	if code != 2 {
		t.Fatalf("wrong-token worker exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "401") {
		t.Errorf("stderr does not surface the 401: %s", errb.String())
	}
}

// TestCoordFlagValidation pins the flag-combination errors around the
// coordinator and auth flags.
func TestCoordFlagValidation(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		args []string
		want string
	}{
		"serve-coord without store": {[]string{"-serve-coord", ":0"}, "needs -cache DIR"},
		"serve-coord with all":      {[]string{"-serve-coord", ":0", "-cache", "d", "-all"}, "-serve-coord does not apply to -all"},
		"serve-coord bad lease":     {[]string{"-serve-coord", ":0", "-cache", "d", "-lease", "0s"}, "not a lease TTL"},
		"lease without serve-coord": {[]string{"-all", "-coord-url", "http://x", "-lease", "10s"}, "-lease does not apply to -all"},
		"coord-url without all":     {[]string{"-coord-url", "http://x"}, "-campaign required"},
		"coord-url with cache":      {[]string{"-all", "-coord-url", "http://x", "-cache", "d"}, "replaces -cache"},
		"coord-url with shard":      {[]string{"-all", "-coord-url", "http://x", "-shard", "1/2"}, "replaces -cache"},
		"coord-url malformed":       {[]string{"-all", "-coord-url", "10.0.0.7:7077"}, "coordinator URL"},
		"worker without coord":      {[]string{"-all", "-worker", "w"}, "need -coord-url"},
		"auth-token alone":          {[]string{"-all", "-auth-token", "t"}, "need -coord-url"},
	}
	for name, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (stderr %q)", name, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q missing %q", name, errb.String(), tc.want)
		}
	}
}
