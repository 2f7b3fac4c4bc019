//go:build !race

// Allocation counts are pinned for the normal build only, as in the
// store's encoder test; the race detector's instrumentation is not held
// to them.

package findings

import "testing"

// TestEncodeAllocatesOnce pins the encoder's allocation on the whole
// matrix: the returned bytes, and nothing else.
func TestEncodeAllocatesOnce(t *testing.T) {
	rep := matrixReport()
	if n := testing.AllocsPerRun(10, func() { rep.Encode() }); n != 1 {
		t.Errorf("Encode made %v allocations, want 1", n)
	}
}
