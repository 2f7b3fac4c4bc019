package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core/inject"
)

// FuzzSegmentScan hands arbitrary bytes to Open as a segment file. Open
// and Get must never panic, every fingerprint the scan indexed must
// point at a framed record that really is in the file, and every hit
// must be an entry Get's validation accepts, replaying a result that
// re-encodes.
func FuzzSegmentScan(f *testing.F) {
	rec := func(fp string) []byte {
		body, err := json.Marshal(&entry{
			Store:       FormatVersion,
			Engine:      inject.EngineVersion,
			Fingerprint: fp,
			Label:       "fuzz",
			Result:      toWire(&inject.Result{Campaign: "fuzz", TotalSites: []string{"a:open"}}),
		})
		if err != nil {
			f.Fatal(err)
		}
		return append(appendHeader(nil, fp, len(body)), body...)
	}
	a, b := rec(strings.Repeat("a", 64)), rec(strings.Repeat("b", 64))
	f.Add(append(append([]byte{}, a...), b...))
	f.Add(a[:len(a)-1])
	f.Add(append(append(append([]byte{}, a[:len(a)/2]...), "junk"...), b...))
	f.Add(append(bytes.Replace(a, []byte(FormatVersion), []byte("eptest-store/0"), 1), b...))
	f.Add(append(append(rec(strings.Repeat("c", 64))[:headerLen], "{}"...), b...))
	f.Add([]byte{recordSep})
	f.Add([]byte{})

	// Inputs run one at a time per process, so every input overwrites
	// the lone segment of one directory. Resizing the open file instead
	// of recreating it keeps an execution cheap enough for the fuzzer's
	// input minimization to finish.
	dir := f.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, segmentDir), 0o755); err != nil {
		f.Fatal(err)
	}
	seg, err := os.Create(filepath.Join(dir, segmentDir, "fuzz"+segmentExt))
	if err != nil {
		f.Fatal(err)
	}
	defer seg.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := seg.Truncate(int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if _, err := seg.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for fp, i := range s.index {
			if l := s.locs[i]; !bytes.Contains(data, append(appendHeader(nil, fp, l.n), data[l.off:l.off+int64(l.n)]...)) {
				t.Fatalf("index entry for %s is not a framed record of the file", fp)
			}
			res, ok := s.Get(fp)
			if !ok {
				continue
			}
			// Some copy of the entry must be a framed record that passes
			// Get's validation and replays exactly the result Get returned.
			want, err := EncodeResult(res)
			if err != nil {
				t.Fatalf("replayed result for %s does not re-encode: %v", fp, err)
			}
			valid := false
			for l, ok := s.newest(fp); ok && !valid; l, ok = s.older(l) {
				var e entry
				body := data[l.off : l.off+int64(l.n)]
				if json.Unmarshal(body, &e) != nil || !e.valid(fp) {
					continue
				}
				got, err := EncodeResult(fromWire(e.Result))
				valid = err == nil && bytes.Equal(got, want)
			}
			if !valid {
				t.Fatalf("hit for %s matches no record that passes Get's validation", fp)
			}
		}
		if n, err := s.Len(); err != nil || n != len(s.index) {
			t.Fatalf("Len = %d, %v; want %d", n, err, len(s.index))
		}
	})
}
