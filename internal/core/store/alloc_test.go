//go:build !race

// The race detector makes sync.Pool drop buffers at random, so the
// allocation count holds only without it.

package store

import "testing"

// TestEncodeResultAllocatesOnce pins the encoder's allocation: the
// returned bytes, and nothing else once the pool is warm.
func TestEncodeResultAllocatesOnce(t *testing.T) {
	_, puts := catalogRuns()
	res := puts[len(puts)/2].res
	if n := testing.AllocsPerRun(50, func() { EncodeResult(res) }); n != 1 {
		t.Errorf("EncodeResult made %v allocations, want 1", n)
	}
}
