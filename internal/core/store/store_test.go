package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/lpr"
	"repro/internal/core/inject"
	"repro/internal/core/store"
)

// runLpr runs the small walk-through campaign and returns its result
// and plan fingerprint.
func runLpr(t *testing.T) (*inject.Result, string) {
	t.Helper()
	plan, err := inject.PrepareWith(lpr.Campaign(lpr.Vulnerable), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inject.Run(lpr.Campaign(lpr.Vulnerable))
	if err != nil {
		t.Fatal(err)
	}
	return res, plan.Fingerprint("lpr", "vulnerable")
}

// TestPutGetRoundTrip asserts a stored result replays with every
// report-visible field intact and a byte-identical canonical encoding.
func TestPutGetRoundTrip(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, fp := runLpr(t)

	if _, ok := st.Get(fp); ok {
		t.Fatal("hit on an empty store")
	}
	if err := st.Put(fp, "lpr/vulnerable", res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(fp)
	if !ok {
		t.Fatal("miss immediately after put")
	}

	if got.Campaign != res.Campaign ||
		!reflect.DeepEqual(got.TotalSites, res.TotalSites) ||
		!reflect.DeepEqual(got.PerturbedSites, res.PerturbedSites) ||
		!reflect.DeepEqual(got.Injections, res.Injections) {
		t.Error("replayed result diverges from the stored one")
	}
	if got.Metric() != res.Metric() {
		t.Errorf("metric diverges: %+v vs %+v", got.Metric(), res.Metric())
	}
	// The canonical encoding is the store's definition of equality. It
	// leaves out the clean trace, which a replayed result lacks.
	if got.CleanTrace != nil {
		t.Error("replayed result carries a clean trace")
	}
	a, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("canonical encodings diverge after a round trip")
	}

	wantHits(t, mustOpen(t, st.Dir()), []string{fp}, []string{testFP(0)})
}

// TestWireCodecRoundTrip pins the standalone codec: decoding a
// canonical encoding and re-encoding it must reproduce the bytes, so
// artifacts written by one process replay exactly in another.
func TestWireCodecRoundTrip(t *testing.T) {
	t.Parallel()
	res, _ := runLpr(t)
	a, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := store.DecodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("encode→decode→encode is not a fixed point")
	}
	if _, err := store.DecodeResult([]byte("not json")); err == nil {
		t.Error("DecodeResult accepted garbage")
	}
}

// record frames an entry body as one segment record, exactly as
// docs/STORE.md specifies it: the record separator 0x1E, the
// fingerprint, a space, the body length in 8 hex digits, a newline,
// then the body.
func record(fp string, body []byte) []byte {
	return append(fmt.Appendf(nil, "\x1e%s %08x\n", fp, len(body)), body...)
}

// testFP returns the i-th of a family of well-formed fingerprints.
func testFP(i int) string { return fmt.Sprintf("%064x", i+1) }

// tinyResult is a result small enough that cutting its record at every
// byte stays cheap.
func tinyResult(name string) *inject.Result {
	return &inject.Result{Campaign: name, TotalSites: []string{name + ":open"}}
}

// mustOpen opens the store at dir or fails the test.
func mustOpen(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// onlySegment returns the contents of the one segment file under dir.
func onlySegment(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want exactly one", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// storeWithSegment opens a store at dir whose only segment holds seg.
func storeWithSegment(t *testing.T, dir string, seg []byte) *store.Store {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "segments", "written.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, dir)
}

// putTiny writes tinyResult entries for fps and returns each one's
// record as the store framed it, in order.
func putTiny(t *testing.T, fps []string) [][]byte {
	t.Helper()
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i, fp := range fps {
		if err := st.Put(fp, "tiny", tinyResult(fmt.Sprint("tiny", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := onlySegment(t, dir)
	var recs [][]byte
	for len(seg) > 0 {
		n := bytes.IndexByte(seg[1:], 0x1e) + 1
		if n == 0 {
			n = len(seg)
		}
		recs = append(recs, seg[:n])
		seg = seg[n:]
	}
	if len(recs) != len(fps) {
		t.Fatalf("segment holds %d records, want %d", len(recs), len(fps))
	}
	return recs
}

// wantHits asserts which fingerprints st replays.
func wantHits(t *testing.T, st *store.Store, hit, miss []string) {
	t.Helper()
	for _, fp := range hit {
		if _, ok := st.Get(fp); !ok {
			t.Errorf("%s…: miss, want a hit", fp[:8])
		}
	}
	for _, fp := range miss {
		if _, ok := st.Get(fp); ok {
			t.Errorf("%s…: hit, want a miss", fp[:8])
		}
	}
}

// TestGetTreatsBadEntriesAsMisses asserts every flavour of untrustworthy
// entry — absent, corrupt, mislabelled — is a miss, not an error or a
// bogus replay. Each case is a well-framed segment record whose body is
// the damaged entry, so only Get's validation can reject it.
func TestGetTreatsBadEntriesAsMisses(t *testing.T) {
	t.Parallel()
	res, fp := runLpr(t)
	dir := t.TempDir()
	if err := mustOpen(t, dir).Put(fp, "lpr/vulnerable", res); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	pristine := seg[bytes.IndexByte(seg, '\n')+1:]
	if !bytes.Equal(seg, record(fp, pristine)) {
		t.Fatalf("segment is not one framed record: %q", seg[:min(len(seg), 80)])
	}
	if _, ok := storeWithSegment(t, t.TempDir(), record(fp, pristine)).Get(fp); !ok {
		t.Fatal("pristine record: Get returned a miss")
	}

	cases := map[string][]byte{
		"truncated json":    pristine[:len(pristine)/2],
		"not json":          []byte("not a store entry"),
		"foreign format":    bytes.Replace(pristine, []byte(store.FormatVersion), []byte("eptest-store/0"), 1),
		"foreign engine":    bytes.Replace(pristine, []byte(inject.EngineVersion), []byte("eptest-engine/0"), 1),
		"wrong fingerprint": bytes.Replace(pristine, []byte(fp), []byte(strings.Repeat("0", len(fp))), 1),
	}
	for name, body := range cases {
		if _, ok := storeWithSegment(t, t.TempDir(), record(fp, body)).Get(fp); ok {
			t.Errorf("%s: Get returned a hit", name)
		}
	}
	if _, ok := mustOpen(t, t.TempDir()).Get(fp); ok {
		t.Error("absent entry: Get returned a hit")
	}
}

// TestTornTailIsDropped cuts a segment at every byte boundary of its
// last record, as a crash mid-append would: the earlier records still
// replay, the torn one is a miss, and once it is put again a fresh
// handle replays it.
func TestTornTailIsDropped(t *testing.T) {
	t.Parallel()
	fps := []string{testFP(0), testFP(1), testFP(2)}
	seg := bytes.Join(putTiny(t, fps), nil)
	base := t.TempDir()
	for cut := bytes.LastIndexByte(seg, 0x1e); cut < len(seg); cut++ {
		dir := filepath.Join(base, fmt.Sprint(cut))
		st := storeWithSegment(t, dir, seg[:cut])
		wantHits(t, st, fps[:2], fps[2:])
		if err := st.Put(fps[2], "tiny", tinyResult("again")); err != nil {
			t.Fatal(err)
		}
		wantHits(t, mustOpen(t, dir), fps, nil)
		if t.Failed() {
			t.Fatalf("segment cut at byte %d of %d", cut, len(seg))
		}
	}
}

// TestDamageBetweenRecordsIsSkipped damages the middle of three records
// in place: the scan resynchronises on the record after it, the damaged
// entry is a miss, and once it is put again a fresh handle replays all
// three.
func TestDamageBetweenRecordsIsSkipped(t *testing.T) {
	t.Parallel()
	fps := []string{testFP(0), testFP(1), testFP(2)}
	recs := putTiny(t, fps)
	mid := recs[1]
	hdr := bytes.IndexByte(mid, '\n') + 1
	cases := map[string][]byte{
		"overwritten":       bytes.Repeat([]byte("x"), len(mid)),
		"torn":              mid[:len(mid)/2],
		"body garbled":      append(mid[:hdr:hdr], bytes.Repeat([]byte("?"), len(mid)-hdr)...),
		"length overstated": append(fmt.Appendf(nil, "\x1e%s ffffffff\n", fps[1]), mid[hdr:]...),
		"stray separator":   append([]byte("\x1e not a header\n"), mid[:hdr-1]...),
	}
	for name, damaged := range cases {
		dir := t.TempDir()
		st := storeWithSegment(t, dir, bytes.Join([][]byte{recs[0], damaged, recs[2]}, nil))
		wantHits(t, st, []string{fps[0], fps[2]}, fps[1:2])
		if err := st.Put(fps[1], "tiny", tinyResult("again")); err != nil {
			t.Fatal(err)
		}
		fresh := mustOpen(t, dir)
		wantHits(t, fresh, fps, []string{testFP(3)})
		if t.Failed() {
			t.Fatalf("case %q", name)
		}
	}
}

// TestHandlesShareADirectory has two handles put concurrently into one
// directory, each probing the other's entries as it goes. Afterwards
// each replays everything the other wrote, and so does a third handle
// opened on the directory; each misses a fingerprint neither wrote.
func TestHandlesShareADirectory(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	handles := []*store.Store{mustOpen(t, dir), mustOpen(t, dir)}
	const n = 25
	shared := testFP(2 * n)
	var all []string
	for i := 0; i <= 2*n; i++ {
		all = append(all, testFP(i))
	}
	var wg sync.WaitGroup
	for h, st := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fp := testFP(h*n + i)
				if err := st.Put(fp, "tiny", tinyResult(fp)); err != nil {
					t.Error(err)
					return
				}
				if _, ok := st.Get(fp); !ok {
					t.Errorf("handle %d: own entry %d missed", h, i)
				}
				st.Get(testFP((1-h)*n + i))
			}
			if err := st.Put(shared, "tiny", tinyResult("shared")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, st := range append(handles, mustOpen(t, dir)) {
		wantHits(t, st, all, []string{testFP(2*n + 1)})
	}
}

// TestLaterSegmentIsFound opens a handle before another handle creates
// its segment: the first handle's next Get hits the other's entry.
func TestLaterSegmentIsFound(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	early := mustOpen(t, dir)
	if err := early.Put(testFP(0), "tiny", tinyResult("early")); err != nil {
		t.Fatal(err)
	}
	wantHits(t, early, []string{testFP(0)}, []string{testFP(1)})
	if err := mustOpen(t, dir).Put(testFP(1), "tiny", tinyResult("late")); err != nil {
		t.Fatal(err)
	}
	wantHits(t, early, []string{testFP(0), testFP(1)}, nil)
}

// TestTornNameDoesNotHideASegment leaves a torn line, "\nabc" with no
// newline, in the log that announces segments, as a crash mid-write
// would, both before and after a handle has read the log: a segment
// another handle creates afterwards is still found, by the open handle
// and by a fresh one.
func TestTornNameDoesNotHideASegment(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	early := mustOpen(t, dir)
	if err := early.Put(testFP(0), "tiny", tinyResult("early")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "segments.names"), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\nabc"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantHits(t, early, []string{testFP(0)}, []string{testFP(1)})
	if err := mustOpen(t, dir).Put(testFP(1), "tiny", tinyResult("late")); err != nil {
		t.Fatal(err)
	}
	wantHits(t, early, []string{testFP(0), testFP(1)}, nil)
	wantHits(t, mustOpen(t, dir), []string{testFP(0), testFP(1)}, nil)
}

// TestUnannouncedSegmentIsFoundByOpen writes a segment into a store's
// directory without announcing it, as a binary from before segment
// announcements does: a fresh Open finds its entries.
func TestUnannouncedSegmentIsFoundByOpen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if err := st.Put(testFP(0), "tiny", tinyResult("announced")); err != nil {
		t.Fatal(err)
	}
	old := putTiny(t, []string{testFP(1), testFP(2)})
	if err := os.WriteFile(filepath.Join(dir, "segments", "old.seg"), bytes.Join(old, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	wantHits(t, mustOpen(t, dir), []string{testFP(0), testFP(1), testFP(2)}, nil)
}

// TestManySegmentsReplay fills one directory from 300 handles, each
// with a segment of its own: a fresh handle replays every entry.
func TestManySegmentsReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const n = 300
	handles := make([]*store.Store, n)
	for i := range handles {
		handles[i] = mustOpen(t, dir)
	}
	var fps []string
	for i, st := range handles {
		fps = append(fps, testFP(i))
		if err := st.Put(testFP(i), "tiny", tinyResult(fmt.Sprint("handle", i))); err != nil {
			t.Fatal(err)
		}
	}
	if segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg")); err != nil || len(segs) != n {
		t.Fatalf("%d segments, %v; want %d", len(segs), err, n)
	}
	wantHits(t, mustOpen(t, dir), fps, nil)
}

// TestPutRejectsMalformedFingerprint pins that only a content address
// can be framed as a record.
func TestPutRejectsMalformedFingerprint(t *testing.T) {
	t.Parallel()
	if err := mustOpen(t, t.TempDir()).Put("deadbeef", "tiny", tinyResult("x")); err == nil {
		t.Error("Put accepted a malformed fingerprint")
	}
}

// TestOpenRejectsEmptyDir pins the one invalid configuration.
func TestOpenRejectsEmptyDir(t *testing.T) {
	t.Parallel()
	if _, err := store.Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
}
