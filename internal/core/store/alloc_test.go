//go:build !race

// The race detector makes sync.Pool drop buffers at random, so the
// allocation count holds only without it.

package store

import (
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
