package coord_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/store"
)

// FuzzJournalDecode feeds arbitrary bytes, behind a fixed meta header,
// to the coordinator's journal file and restores from it. Neither the
// journal reader nor Restore may panic. Whatever they accept must be a
// consistent queue (every job pending, claimed or done) whose Stats
// survive restore∘compact∘restore unchanged.
func FuzzJournalDecode(f *testing.F) {
	at := newFakeClock().Now().UnixMilli()
	stamp := func(line string) string {
		return strings.Replace(line, `"at_ms":0`, `"at_ms":`+strconv.FormatInt(at, 10), 1)
	}
	inline, _ := json.Marshal(fakeOutcome(f, 1))
	for _, seed := range []string{
		`{"op":"register","at_ms":0,"worker":"w1","worker_name":"alice","index":0}` + "\n",
		`{"op":"register","at_ms":0,"worker":"w1","worker_name":"alice","index":0}
{"op":"claim","at_ms":0,"worker":"w1","index":2,"expires_ms":1}
{"op":"claim","at_ms":0,"worker":"w1","index":3,"expires_ms":9999999999999}
{"op":"renew","at_ms":0,"worker":"w1","index":0,"indices":[3,3],"expires_ms":9999999999999}
{"op":"complete","at_ms":0,"worker":"w1","index":0,"outcome":{"name":"a","variant":"vulnerable","fingerprint":"` + fakeFingerprint(0) + `"},"result_ref":true}
{"op":"complete","at_ms":0,"worker":"w1","index":1,"outcome":` + string(inline) + `}
{"op":"complete","at_ms":0,"worker":"w1","index":1,"duplicate":true}
`,
		`{"op":"campaign","at_ms":0,"name":"x","filter":"a*","priority":3,"created_ms":5,"index":0}
{"op":"register","at_ms":0,"worker":"w7","index":0,"counters":{"claims":4,"completions":2}}
{"op":"expire","at_ms":0,"worker":"w7","index":1}
{"op":"worker-gone","at_ms":0,"worker":"w7","index":0}
{"op":"campaign-gc","at_ms":0,"name":"x","index":0}
`,
		`{"op":"complete","at_ms":0,"worker":"w1","index":0,"outcome":{"name":"zzz","variant":"q","err":"boom"}}` + "\n",
		`{"op":"meta","at_ms":0,"index":0}` + "\n",
		`{"op":"claim","at_ms":0,"index":-1}` + "\n",
		`{"op":"register","at_ms":0,"worker":"w1"` + "\n",
		`{"op":"register","at_ms":0,"worker":"w1","index":0}`,
		"\x00\xff\n\n",
	} {
		var b strings.Builder
		for _, line := range strings.SplitAfter(seed, "\n") {
			b.WriteString(stamp(line))
		}
		f.Add([]byte(b.String()))
	}

	header := journalHeader(f)
	cache := newMemCache()
	for i := range testCatalog {
		res, err := store.DecodeResult(fakeOutcome(f, i).Result)
		if err != nil {
			f.Fatal(err)
		}
		cache.Put(fakeFingerprint(i), testCatalog[i], res)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "coord", "journal.jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(append([]byte(nil), header...), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		clk := newFakeClock()
		restore := func() (coord.Stats, error) {
			fj, recs, err := coord.OpenFileJournal(path)
			if err != nil {
				return coord.Stats{}, err
			}
			defer fj.Close()
			co, err := coord.Restore(testCatalog, coord.Options{
				LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: fj, Results: cache,
				Retention: 45 * time.Second, Logf: func(string, ...any) {},
			}, recs)
			if err != nil {
				return coord.Stats{}, err
			}
			return co.Stats(), nil
		}
		st, err := restore()
		if err != nil {
			return
		}
		if st.Pending+st.Claimed+st.Done != st.Jobs {
			t.Fatalf("restored queue has %d pending + %d claimed + %d done of %d jobs", st.Pending, st.Claimed, st.Done, st.Jobs)
		}
		for gen := 2; gen <= 3; gen++ {
			again, err := restore()
			if err != nil {
				t.Fatalf("restore %d of the compacted journal: %v", gen, err)
			}
			if !reflect.DeepEqual(again, st) {
				t.Fatalf("restore %d stats diverge:\n got %+v\nwant %+v", gen, again, st)
			}
		}
	})
}

// journalHeader renders the meta line a fresh journaling coordinator
// over testCatalog writes.
func journalHeader(tb testing.TB) []byte {
	tb.Helper()
	mj := &coord.MemJournal{}
	coord.New(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: newFakeClock().Now, Journal: mj})
	b, err := json.Marshal(mj.Records()[0])
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}
