package coord_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core/coord"
)

// The coordinator's journal lives in the store directory, at
// <store>/coord/journal.jsonl; coord.FileJournal owns its bytes. These
// tests pin the line-log contract that file keeps for the store: order,
// crash tolerance and compaction.

// journalPath is where a coordinator keeps its journal in a store
// directory that has not been created yet.
func journalPath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "store", "coord", "journal.jsonl")
}

// TestJournalAppendReadRoundTrip pins the basic contract: appended
// records come back in order, a missing file is an empty journal and
// its directory is created, blank lines are skipped, and a newline
// inside a record stays inside its line.
func TestJournalAppendReadRoundTrip(t *testing.T) {
	t.Parallel()
	path := journalPath(t)
	j, recs, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs != nil {
		t.Fatalf("missing journal read %d records, want none", len(recs))
	}
	want := []*coord.JournalRecord{
		{Op: "meta", Schema: coord.JournalSchemaVersion, Jobs: 2},
		{Op: "claim", Worker: "w1", Index: 1},
		{Op: "campaign", Name: "x", Note: "two\nlines"},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != len(want) {
		t.Fatalf("journal file holds %d lines, want %d:\n%s", n, len(want), b)
	}
	if err := os.WriteFile(path, append([]byte("\n \n"), b...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
}

// TestJournalTornTailDropped pins crash tolerance: bytes after the last
// newline, a write torn by SIGKILL, are dropped, and every complete
// line before them survives.
func TestJournalTornTailDropped(t *testing.T) {
	t.Parallel()
	path := journalPath(t)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{\"op\":\"meta\"}\n{\"op\":\"claim\",\"ind"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 1 || recs[0].Op != "meta" {
		t.Fatalf("torn journal read %+v, want just the intact meta record", recs)
	}
}

// TestJournalRewriteCompacts pins compaction: Rewrite atomically
// replaces the contents and the append handle keeps working on the new
// generation.
func TestJournalRewriteCompacts(t *testing.T) {
	t.Parallel()
	path := journalPath(t)
	j, _, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(&coord.JournalRecord{Op: "renew", Worker: "w1"}); err != nil {
			t.Fatal(err)
		}
	}
	meta := &coord.JournalRecord{Op: "meta", Schema: coord.JournalSchemaVersion}
	if err := j.Rewrite([]*coord.JournalRecord{meta}); err != nil {
		t.Fatal(err)
	}
	claim := &coord.JournalRecord{Op: "claim", Worker: "w1", Index: 1}
	if err := j.Append(claim); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, got, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if want := []*coord.JournalRecord{meta, claim}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after rewrite+append read %+v, want %+v", got, want)
	}
}
