package coord_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/coord"
)

// journalSequence is a fixed run of every record shape the journal
// file carries: a meta header, a registration, a claim, a renewal, and
// a completion inline and one by reference. Its strings include the
// characters json.Marshal escapes (<, >, &) and an inline result with
// whitespace, which the file holds compacted.
func journalSequence() []*coord.JournalRecord {
	return []*coord.JournalRecord{
		{Op: "meta", AtMillis: 1000, Schema: coord.JournalSchemaVersion, CatalogHash: "c0ffee", Jobs: 3, LeaseMillis: 60000},
		{Op: "register", AtMillis: 1001, Worker: "w1", WorkerName: "a<b>&c"},
		{Op: "claim", AtMillis: 1002, Worker: "w1", Index: 2, ExpiresMillis: 61002},
		{Op: "renew", AtMillis: 1003, Worker: "w1", Indices: []int{2, 0}, ExpiresMillis: 61003},
		{Op: "complete", AtMillis: 1004, Worker: "w1", Index: 2, Outcome: &coord.Outcome{
			Name: "lpr", Variant: "vulnerable",
			Result: json.RawMessage(`{"campaign": "lpr","total_sites":null,"injections":[]}`),
		}},
		journalRefCompletion(),
	}
}

// journalRefCompletion is a completion whose result is elided because
// the cache holds it.
func journalRefCompletion() *coord.JournalRecord {
	return &coord.JournalRecord{Op: "complete", AtMillis: 1005, Worker: "w1", Index: 0, Outcome: &coord.Outcome{
		Name: "turnin", Variant: "fixed", Fingerprint: "f00d", SourceFingerprint: "beef", Cached: true,
	}, ResultRef: true}
}

const journalSequenceBytes = `{"op":"meta","at_ms":1000,"schema":"eptest-coordlog/2","catalog_hash":"c0ffee","jobs":3,"lease_ms":60000,"index":0}
{"op":"register","at_ms":1001,"worker":"w1","worker_name":"a\u003cb\u003e\u0026c","index":0}
{"op":"claim","at_ms":1002,"worker":"w1","index":2,"expires_ms":61002}
{"op":"renew","at_ms":1003,"worker":"w1","index":0,"indices":[2,0],"expires_ms":61003}
{"op":"complete","at_ms":1004,"worker":"w1","index":2,"outcome":{"name":"lpr","variant":"vulnerable","result":{"campaign":"lpr","total_sites":null,"injections":[]}}}
{"op":"complete","at_ms":1005,"worker":"w1","index":0,"outcome":{"name":"turnin","variant":"fixed","fingerprint":"f00d","source_fingerprint":"beef","cached":true},"result_ref":true}
`

// TestFileJournalBytesPinned pins the journal file byte for byte: one
// line per record, as json.Marshal writes it, through appends, a
// compaction, and an append to the compacted file. It then pins the
// read rules: blank lines are skipped and a torn tail, the bytes after
// the last newline, is dropped, while every complete line survives.
func TestFileJournalBytesPinned(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "coord", "journal.jsonl")
	fj, recs, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	if len(recs) != 0 {
		t.Fatalf("a missing journal read %d records, want none", len(recs))
	}
	for _, rec := range journalSequence() {
		if err := fj.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fj.Sync(); err != nil {
		t.Fatal(err)
	}
	checkJournalFile(t, path, journalSequenceBytes)

	compacted := []*coord.JournalRecord{
		{Op: "meta", AtMillis: 1000, Schema: coord.JournalSchemaVersion, CatalogHash: "c0ffee", Jobs: 3, LeaseMillis: 60000,
			Requeues: 1, Duplicates: 2, Departed: &coord.DepartedStats{Workers: 1, JournalCounters: coord.JournalCounters{Claims: 3, RunsDone: 7}}},
		journalRefCompletion(),
		{Op: "register", AtMillis: 1006, Worker: "w1", Counters: &coord.JournalCounters{Claims: 1, Renewals: 1, Completions: 2}},
	}
	if err := fj.Rewrite(compacted); err != nil {
		t.Fatal(err)
	}
	// A newline inside a string stays escaped, so a record is one line.
	last := &coord.JournalRecord{Op: "campaign", AtMillis: 1008, Name: "x", Filter: "a*", Priority: 2, Note: "two\nlines", CreatedMillis: 1008}
	if err := fj.Append(last); err != nil {
		t.Fatal(err)
	}
	const want = `{"op":"meta","at_ms":1000,"schema":"eptest-coordlog/2","catalog_hash":"c0ffee","jobs":3,"lease_ms":60000,"requeues":1,"duplicates":2,"departed":{"workers":1,"claims":3,"runs_done":7},"index":0}
{"op":"complete","at_ms":1005,"worker":"w1","index":0,"outcome":{"name":"turnin","variant":"fixed","fingerprint":"f00d","source_fingerprint":"beef","cached":true},"result_ref":true}
{"op":"register","at_ms":1006,"worker":"w1","counters":{"claims":1,"renewals":1,"completions":2},"index":0}
{"op":"campaign","at_ms":1008,"name":"x","filter":"a*","priority":2,"note":"two\nlines","created_ms":1008,"index":0}
`
	checkJournalFile(t, path, want)
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n  \n" + `{"op":"claim","at_ms":1009,"ind`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fj2, got, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fj2.Close()
	if wantRecs := append(compacted, last); !reflect.DeepEqual(got, wantRecs) {
		t.Errorf("reopened journal read\n%s\nwant\n%s", mustJSON(t, got), mustJSON(t, wantRecs))
	}
}

// TestFileJournalTornTailCut pins that the open cuts a torn tail from
// the file: the next append starts a line of its own, so the journal
// still reads after the next restart. A crash during the very first
// append, the meta header, leaves only a torn tail.
func TestFileJournalTornTailCut(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(`{"op":"meta","at_ms":1`), 0o644); err != nil {
		t.Fatal(err)
	}
	fj, recs, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("a torn tail read as %d records, want none", len(recs))
	}
	meta := journalSequence()[0]
	if err := fj.Append(meta); err != nil {
		t.Fatal(err)
	}
	fj.Close()
	fj, recs, err = coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fj.Close()
	if want := []*coord.JournalRecord{meta}; !reflect.DeepEqual(recs, want) {
		t.Errorf("reopened journal read\n%s\nwant\n%s", mustJSON(t, recs), mustJSON(t, want))
	}
}

// TestFileJournalUnparsableLine pins the refusal of a damaged journal:
// a complete line that is not a record fails the open, naming the file
// and the record.
func TestFileJournalUnparsableLine(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(`{"op":"meta","index":0}`+"\n{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.OpenFileJournal(path); err == nil {
		t.Fatal("OpenFileJournal accepted a line that does not parse")
	} else if want := "coord: journal " + path + " record 2 does not parse"; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q, want it to start %q", err, want)
	}
}

// checkJournalFile compares the journal file at path with want.
func checkJournalFile(t *testing.T, path, want string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("journal file:\n%s\nwant:\n%s", b, want)
	}
}

// mustJSON renders v for a failure message.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}
