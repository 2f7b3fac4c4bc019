package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
)

// put is one cache write-back a suite run made.
type put struct {
	fp, label string
	res       *inject.Result
}

// recordingCache is a sched.Cache that always misses and records every
// write-back, so a cold suite run yields every entry it would store.
type recordingCache struct {
	mu   sync.Mutex
	puts []put
}

func (c *recordingCache) Get(string) (*inject.Result, bool) { return nil, false }

func (c *recordingCache) Put(fp, label string, res *inject.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts = append(c.puts, put{fp, label, res})
	return nil
}

// catalogRuns runs the base catalog and the matrix once per test
// binary and returns both suite results and every entry they stored.
var catalogRuns = sync.OnceValues(func() ([]*sched.SuiteResult, []put) {
	c := &recordingCache{}
	var srs []*sched.SuiteResult
	for _, jobs := range [][]sched.Job{apps.SuiteJobs(), matrix.SuiteJobs()} {
		srs = append(srs, sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2, Cache: c}))
	}
	return srs, c.puts
})

// TestCodecMatchesReferenceOnCatalog holds the hand-written codec to
// the encoding/json reference on every entry the base catalog and the
// matrix store: the same bytes out, and the same result back in.
func TestCodecMatchesReferenceOnCatalog(t *testing.T) {
	t.Parallel()
	_, puts := catalogRuns()
	if len(puts) < 1200 {
		t.Fatalf("catalog stored %d entries, want one per fingerprint tier of 620 jobs", len(puts))
	}
	for _, p := range puts {
		want, err := referenceEncodeEntry(p.fp, p.label, p.res)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendEntry(nil, p.fp, p.label, p.res); !bytes.Equal(got, want) {
			t.Fatalf("%s: entry bytes diverge from json.Marshal at byte %d", p.label, firstDiff(got, want))
		}
		wantRes, ok := referenceDecodeEntry(want, p.fp)
		if !ok {
			t.Fatalf("%s: the reference rejects its own entry", p.label)
		}
		gotRes, err := decodeEntry(want, p.fp)
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%s: decoded entry differs from the reference decode", p.label)
		}

		wantB, err := referenceEncodeResult(p.res)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := EncodeResult(p.res)
		if err != nil || !bytes.Equal(gotB, wantB) {
			t.Fatalf("%s: EncodeResult diverges from the reference (%v)", p.label, err)
		}
		wantRes, err = referenceDecodeResult(wantB)
		if err != nil {
			t.Fatal(err)
		}
		if gotRes, err = DecodeResult(wantB); err != nil || !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%s: DecodeResult differs from the reference decode (%v)", p.label, err)
		}
	}
}

// TestReferenceWrittenStoreReplays opens a store whose segment holds
// every catalog entry as the encoding/json reference wrote it: every
// job must replay from it, and replay exactly, with nothing re-run or
// re-put. The hand-written codec reads what the reference writes.
func TestReferenceWrittenStoreReplays(t *testing.T) {
	t.Parallel()
	cold, puts := catalogRuns()
	var seg []byte
	for _, p := range puts {
		body, err := referenceEncodeEntry(p.fp, p.label, p.res)
		if err != nil {
			t.Fatal(err)
		}
		seg = append(appendHeader(seg, p.fp, len(body)), body...)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, segmentDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentDir, "reference"+segmentExt), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, jobs := range [][]sched.Job{apps.SuiteJobs(), matrix.SuiteJobs()} {
		warm := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2, Cache: st})
		for j, cr := range warm.Campaigns {
			label := cr.Job.Label()
			if !cr.Cached || cr.Err != nil || cr.CacheErr != nil {
				t.Fatalf("%s: cached %v, err %v, cache err %v; want a replay", label, cr.Cached, cr.Err, cr.CacheErr)
			}
			if cr.Result.CleanTrace != nil || !sameStored(cr.Result, cold[i].Campaigns[j].Result) {
				t.Fatalf("%s: replayed result differs from the run that stored it", label)
			}
		}
	}
	if st.own != nil {
		t.Error("the warm runs wrote to the store")
	}
}

// sameStored reports whether a and b agree on every field the store
// keeps: all but the clean trace.
func sameStored(a, b *inject.Result) bool {
	x, y := *a, *b
	x.CleanTrace, y.CleanTrace = nil, nil
	return reflect.DeepEqual(&x, &y)
}

// TestDecoderRejectsNonCanonical pins the decoder's contract on inputs
// encoding/json accepts but the encoder never writes: each is an
// error, while the canonical original decodes.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	t.Parallel()
	res := &inject.Result{
		Campaign:   "c<&>",
		TotalSites: []string{"a:open"},
		Injections: []inject.Injection{{Point: "a:open#0", Exit: 2, Violations: []policy.Violation{{Detail: "x\ny"}}}},
	}
	good, _ := EncodeResult(res)
	if _, err := DecodeResult(good); err != nil {
		t.Fatalf("canonical input rejected: %v", err)
	}
	// esc spells the \u escape of four hex digits.
	esc := func(hex string) string { return `\` + "u" + hex }
	swap := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("%q is not in %s", old, good)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, good, "", "  "); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"indented":           indented.Bytes(),
		"trailing space":     append(append([]byte{}, good...), ' '),
		"unescaped <":        swap(esc("003c"), "<"),
		"needless escape":    swap(`"a:open"`, `"a:op`+esc("0065")+`n"`),
		"uppercase hex":      swap(esc("003c"), esc("003C")),
		"long escape":        swap(`x\ny`, `x`+esc("000a")+`y`),
		"escaped slash":      swap(`"a:open"`, `"a:open\/"`),
		"replacement escape": swap(`"c`, `"`+esc("fffd")+`c`),
		"raw control":        swap(`x\ny`, "x\ny"),
		"invalid UTF-8":      swap(`"a:open"`, "\"a:open\xff\""),
		"leading zero":       swap(`"Exit":2`, `"Exit":02`),
		"negative zero":      swap(`"Class":0`, `"Class":-0`),
		"float":              swap(`"Exit":2`, `"Exit":2.0`),
		"v1 clean trace":     swap(`,"total_sites"`, `,"clean_trace":[],"total_sites"`),
		"empty perturbed":    swap(`,"injections"`, `,"perturbed_sites":[],"injections"`),
		"reordered":          swap(`{"Kind":0,"Point":""`, `{"Point":"","Kind":0`),
		"renamed member":     swap(`"campaign"`, `"Campaign"`),
		"unknown member":     swap(`{"campaign"`, `{"x":1,"campaign"`),
		"trailing comma":     swap(`"total_sites":["a:open"]`, `"total_sites":["a:open",]`),
	} {
		if _, err := DecodeResult(b); err == nil {
			t.Errorf("%s: decoded %s", name, b)
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
