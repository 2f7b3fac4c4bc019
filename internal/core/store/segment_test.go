package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core/inject"
)

// TestFailedAppendRetiresSegment makes a handle's append fail after it
// left half a record behind: Put reports the failure, the next Put
// starts a new segment instead of writing after the partial record,
// and a fresh handle replays every entry except the failed one.
func TestFailedAppendRetiresSegment(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &inject.Result{Campaign: "retire", TotalSites: []string{"a:open"}}
	fp := func(i int) string { return fmt.Sprintf("%064x", i) }
	if err := s.Put(fp(1), "ok", res); err != nil {
		t.Fatal(err)
	}
	first := s.own

	// Simulate a short write: half a record lands, then the descriptor
	// fails the rest.
	body, err := json.Marshal(&entry{Store: FormatVersion, Engine: inject.EngineVersion, Fingerprint: fp(2), Result: toWire(res)})
	if err != nil {
		t.Fatal(err)
	}
	rec := append(appendHeader(nil, fp(2), len(body)), body...)
	if _, err := first.f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	first.f.Close()
	if err := s.Put(fp(2), "fails", res); err == nil {
		t.Fatal("Put on a failing segment reported success")
	}
	if s.own != nil {
		t.Fatal("the failing segment was not retired")
	}
	if err := s.Put(fp(3), "ok", res); err != nil {
		t.Fatal(err)
	}
	if s.own == first {
		t.Fatal("Put appended to the retired segment")
	}

	fresh, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, fresh} {
		for i, want := range map[int]bool{1: true, 2: false, 3: true} {
			if _, ok := st.Get(fp(i)); ok != want {
				t.Errorf("Get(fp %d) hit = %v, want %v", i, ok, want)
			}
		}
	}
	if segs, err := os.ReadDir(filepath.Join(s.dir, segmentDir)); err != nil || len(segs) != 2 {
		t.Errorf("segments = %d, %v; want 2", len(segs), err)
	}
}
