//go:build !race

// The race detector makes sync.Pool drop buffers at random, so the
// allocation count holds only without it.

package coord_test

import (
	"path/filepath"
	"testing"

	"repro/internal/core/coord"
)

// TestFileJournalAppendAllocatesNothing pins the journal's append: the
// record is encoded into the journal's own buffer and written from it,
// so a claim record, the most frequent one, allocates nothing.
func TestFileJournalAppendAllocatesNothing(t *testing.T) {
	fj, _, err := coord.OpenFileJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	rec := &coord.JournalRecord{Op: "claim", AtMillis: 1002, Worker: "w1", Index: 2, ExpiresMillis: 61002}
	if n := testing.AllocsPerRun(100, func() {
		if err := fj.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Append of a claim record made %v allocations, want 0", n)
	}
}
