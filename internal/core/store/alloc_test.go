//go:build !race

// The race detector makes sync.Pool drop buffers at random, so the
// allocation count holds only without it.

package store

import (
	"fmt"
	"testing"

	"repro/internal/apps/lpr"
	"repro/internal/core/inject"
)

// TestEncodeResultAllocatesOnce pins the encoder's allocation: the
// returned bytes, and nothing else once the pool is warm.
func TestEncodeResultAllocatesOnce(t *testing.T) {
	_, puts := catalogRuns()
	res := puts[len(puts)/2].res
	if n := testing.AllocsPerRun(50, func() { EncodeResult(res) }); n != 1 {
		t.Errorf("EncodeResult made %v allocations, want 1", n)
	}
}

// TestDecodeResultAllocations pins the decoder's allocations on one
// fixed result, the vulnerable lpr campaign's: the result, its slices
// and the strings it copies out, and not the decoder, which with its
// intern table stays on the stack.
func TestDecodeResultAllocations(t *testing.T) {
	res, err := inject.Run(lpr.Campaign(lpr.Vulnerable))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := EncodeResult(res)
	if n := testing.AllocsPerRun(50, func() { DecodeResult(b) }); n != 51 {
		t.Errorf("DecodeResult made %v allocations, want 51", n)
	}
}

// TestGetMissAllocations pins the cost of a miss on a store holding its
// own segment and one another handle wrote: at most one allocation per
// file the miss checks (the name log and the foreign segment, whose
// fstat results escape), which rules out listing the directory.
func TestGetMissAllocations(t *testing.T) {
	s, fp := missStore(t)
	if n := testing.AllocsPerRun(50, func() { s.Get(fp) }); n > 2 {
		t.Errorf("a Get miss made %v allocations, want at most 2", n)
	}
}

// missStore opens a store on a directory that holds two segments, the
// handle's own and one another handle wrote, and returns it with a
// fingerprint it has no record of.
func missStore(tb testing.TB) (*Store, string) {
	tb.Helper()
	dir := tb.TempDir()
	res := &inject.Result{Campaign: "miss", TotalSites: []string{"a:open"}}
	fp := func(i int) string { return fmt.Sprintf("%064x", i) }
	foreign, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := foreign.Put(fp(1), "foreign", res); err != nil {
		tb.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Put(fp(2), "own", res); err != nil {
		tb.Fatal(err)
	}
	return s, fp(3)
}

// BenchmarkGetMiss measures the lookup every cold job makes before it
// runs: a Get of a fingerprint no segment holds.
func BenchmarkGetMiss(b *testing.B) {
	s, fp := missStore(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := s.Get(fp); ok {
			b.Fatal("hit")
		}
	}
}
