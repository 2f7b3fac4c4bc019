// Package store persists campaign results on disk so suite runs can be
// incremental and distributed.
//
// It has two layers, both living under one directory and both specified
// in docs/STORE.md:
//
//   - a content-addressed result cache: one JSON entry per campaign,
//     keyed by the plan fingerprint of inject.(*ExecPlan).Fingerprint
//     and appended as one framed record to a segment log.
//     sched.RunSuite consults it (through the sched.Cache interface this
//     package implements) to skip campaigns whose ExecPlan is unchanged
//     and replay their stored results, bit-identical to a fresh run;
//
//   - shard artifacts: the per-process output of `eptest -all -shard
//     k/n`, each carrying its slice of the deterministic job partition,
//     which MergeShards recombines into the exact SuiteResult an
//     unsharded run would have produced.
//
// Invalidation is purely fingerprint-driven: entries are immutable once
// written, a changed campaign simply hashes to a new address, and a
// bumped inject.EngineVersion or store FormatVersion orphans old entries
// (Get treats them as misses) without any migration step. The same goes
// for the per-file `campaigns/` tree older stores kept: it is never
// read, so its campaigns re-run once and land in a segment.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core/inject"
)

// Store is a result store rooted at one directory. Methods are safe for
// concurrent use by the suite scheduler's goroutines, and any number of
// handles, in one process or many, may share the directory: each handle
// appends only to the segment it created, and a lookup that misses
// re-scans the segments other handles have created or grown since.
//
// A Store needs no Close. Reads open their segment for the one read;
// the only long-lived descriptor is the handle's own append segment,
// which the runtime closes once the Store is unreachable.
type Store struct {
	dir string

	mu sync.Mutex
	// segs is every segment scanned so far, by file name.
	segs map[string]*segment
	// index maps a fingerprint to its newest record in locs; older
	// copies of the same entry chain through location.prev.
	index map[string]int32
	locs  []location
	// own is the segment this handle appends to: nil until the first
	// Put, and again after an append fails.
	own *segment
}

// segment is one append-only log file under segmentDir.
type segment struct {
	path string
	// f is the append descriptor, set only on the handle's own segment.
	f *os.File
	// end is where the next scan resumes: the end of the last whole
	// record, or the first damaged byte no later record follows.
	end int64
	// size is the file size the last scan (or append) saw, so a re-scan
	// skips segments that have not grown.
	size int64
}

// location places one record's body.
type location struct {
	seg  *segment
	off  int64
	n    int
	prev int32 // an older record of the same fingerprint, or -1
}

// Open creates (if needed) and returns the store rooted at dir, having
// indexed the entries its segments already hold.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{segmentDir, shardDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, segs: map[string]*segment{}, index: map[string]int32{}}
	if err := s.scanLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// On-disk layout (see docs/STORE.md).
const (
	segmentDir = "segments"
	segmentExt = ".seg"
	shardDir   = "shards"
)

// A record is a header line followed by the body, the cache entry's
// JSON exactly as json.Marshal produced it. The header is the ASCII
// record separator 0x1E, the 64-hex fingerprint, a space, the body
// length in 8 hex digits, and a newline. encoding/json escapes every
// control character, so 0x1E never occurs inside a body: a scan that
// meets damage resynchronises on the next 0x1E.
const (
	recordSep = 0x1e
	headerLen = 1 + 64 + 1 + 8 + 1
)

// entry is the cache-entry envelope around one campaign result.
type entry struct {
	Store       string        `json:"store"`
	Engine      string        `json:"engine"`
	Fingerprint string        `json:"fingerprint"`
	Label       string        `json:"label"`
	Result      *wireCampaign `json:"result"`
}

// valid reports whether a decoded entry is one this build may replay
// under fp.
func (e *entry) valid(fp string) bool {
	return e.Store == FormatVersion && e.Engine == inject.EngineVersion && e.Fingerprint == fp && e.Result != nil
}

// Get returns the cached result stored under the fingerprint. Any
// failure to produce a trustworthy entry — no record, a torn or
// unreadable one, a foreign format or engine version, a fingerprint
// mismatch — is a cache miss, never an error: the caller's fallback
// (re-running the campaign) is always correct. When the store holds
// several copies of the entry, the newest one that validates replays.
func (s *Store) Get(fp string) (*inject.Result, bool) {
	for l, ok := s.newest(fp); ok; l, ok = s.older(l) {
		b, err := l.body()
		if err != nil {
			continue
		}
		var e entry
		if json.Unmarshal(b, &e) == nil && e.valid(fp) {
			return fromWire(e.Result), true
		}
	}
	return nil, false
}

// newest returns the location of fp's newest record. A fingerprint
// the index lacks triggers a re-scan first, so entries other handles
// have written since are found.
func (s *Store) newest(fp string) (location, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[fp]
	if !ok {
		s.scanLocked()
		if i, ok = s.index[fp]; !ok {
			return location{}, false
		}
	}
	return s.locs[i], true
}

// older returns the location of the record of the same fingerprint
// indexed before l.
func (s *Store) older(l location) (location, bool) {
	if l.prev < 0 {
		return location{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.locs[l.prev], true
}

// body reads the record body at l.
func (l location) body() ([]byte, error) {
	f, err := os.Open(l.seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, l.n)
	if _, err := f.ReadAt(b, l.off); err != nil {
		return nil, err
	}
	return b, nil
}

// Put stores a campaign result under its fingerprint. label is a
// human-readable job name kept alongside for inspection; it does not
// participate in addressing. The entry is appended as one record in a
// single write to the handle's own segment, which the first Put
// creates. A re-Put of an existing address appends a byte-identical
// copy — the address is content-derived.
func (s *Store) Put(fp, label string, res *inject.Result) error {
	if !validFingerprint(fp) {
		return fmt.Errorf("store: malformed fingerprint %q (want 64 hex chars)", fp)
	}
	e := entry{
		Store:       FormatVersion,
		Engine:      inject.EngineVersion,
		Fingerprint: fp,
		Label:       label,
		Result:      toWire(res),
	}
	body, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", fp, err)
	}
	if int64(len(body)) > maxRecordBody {
		return fmt.Errorf("store: entry %s is %d bytes, over the %d-byte record limit", fp, len(body), maxRecordBody)
	}
	rec := make([]byte, 0, headerLen+len(body))
	rec = appendHeader(rec, fp, len(body))
	rec = append(rec, body...)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		f, err := os.CreateTemp(filepath.Join(s.dir, segmentDir), "*"+segmentExt)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.own = &segment{path: f.Name(), f: f}
		s.segs[filepath.Base(f.Name())] = s.own
	}
	w := s.own
	if _, err := w.f.Write(rec); err != nil {
		// The failed write may have left part of a record behind.
		// Retire the segment so no later record lands after it; the
		// next Put starts a fresh one, and scans drop the torn tail.
		w.f.Close()
		w.f, s.own = nil, nil
		return fmt.Errorf("store: append %s: %w", fp, err)
	}
	s.addLocked(fp, w, w.end+headerLen, len(body))
	w.end += int64(len(rec))
	w.size = w.end
	return nil
}

// Len counts the distinct fingerprints with a record in the store.
func (s *Store) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.scanLocked(); err != nil {
		return 0, err
	}
	return len(s.index), nil
}

// addLocked indexes one record body.
func (s *Store) addLocked(fp string, seg *segment, off int64, n int) {
	prev, ok := s.index[fp]
	if !ok {
		prev = -1
	}
	s.index[fp] = int32(len(s.locs))
	s.locs = append(s.locs, location{seg: seg, off: off, n: n, prev: prev})
}

// scanLocked indexes every record written since the last scan: the
// whole of segments it has not seen, and the tail of segments that
// have grown. The handle's own segment is indexed as it is written.
func (s *Store) scanLocked() error {
	dir := filepath.Join(s.dir, segmentDir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if filepath.Ext(name) != segmentExt {
			continue
		}
		seg := s.segs[name]
		if seg != nil && seg == s.own {
			continue
		}
		info, err := de.Info()
		if err != nil || (seg != nil && info.Size() == seg.size) {
			continue
		}
		if seg == nil {
			seg = &segment{path: filepath.Join(dir, name)}
			s.segs[name] = seg
		}
		s.scanSegmentLocked(seg, info.Size())
	}
	return nil
}

// scanSegmentLocked indexes seg's records from seg.end up to size,
// reading only their headers. A header that does not parse, or whose
// body runs past size, is damage, and the scan resumes at the next
// record separator. The search starts inside the previous record's
// body when the damage sits right where that body ended, because then
// it is the previous record's length that may be torn, hiding a whole
// record inside its claimed body. Where no separator follows, the scan
// stops: a torn tail, or a record another handle is still writing,
// stays unindexed with seg.end on its first byte, so a later scan of
// the grown file retries it.
func (s *Store) scanSegmentLocked(seg *segment, size int64) {
	f, err := os.Open(seg.path)
	if err != nil {
		return
	}
	defer f.Close()
	var hdr [headerLen]byte
	off, prevBody := seg.end, int64(-1)
	for off+headerLen <= size {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		if fp, n, ok := parseHeader(hdr[:]); ok && off+headerLen+int64(n) <= size {
			s.addLocked(fp, seg, off+headerLen, n)
			prevBody = off + headerLen
			off = prevBody + int64(n)
			continue
		}
		from := off + 1
		if prevBody >= 0 {
			from, prevBody = prevBody, -1
		}
		next, ok := nextRecord(f, from, size)
		if !ok {
			break
		}
		off = next
	}
	seg.end, seg.size = off, size
}

// nextRecord returns the offset of the first record separator in f
// within [from, size).
func nextRecord(f *os.File, from, size int64) (int64, bool) {
	buf := make([]byte, 4096)
	for from < size {
		n, err := f.ReadAt(buf[:min(int64(len(buf)), size-from)], from)
		if i := bytes.IndexByte(buf[:n], recordSep); i >= 0 {
			return from + int64(i), true
		}
		if err != nil {
			break
		}
		from += int64(n)
	}
	return 0, false
}

// maxRecordBody is the largest body an 8-hex-digit length can frame.
const maxRecordBody = 1<<32 - 1

// appendHeader appends the header of a record whose body is n bytes.
func appendHeader(dst []byte, fp string, n int) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, recordSep)
	dst = append(dst, fp...)
	dst = append(dst, ' ')
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[n>>shift&0xf])
	}
	return append(dst, '\n')
}

// parseHeader decodes a record header.
func parseHeader(h []byte) (fp string, n int, ok bool) {
	if h[0] != recordSep || h[65] != ' ' || h[headerLen-1] != '\n' {
		return "", 0, false
	}
	for _, c := range h[66 : headerLen-1] {
		d, ok := hexDigit(c)
		if !ok {
			return "", 0, false
		}
		n = n<<4 | d
	}
	for _, c := range h[1:65] {
		if _, ok := hexDigit(c); !ok {
			return "", 0, false
		}
	}
	return string(h[1:65]), n, true
}

// hexDigit decodes one lowercase hex digit.
func hexDigit(c byte) (int, bool) {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0'), true
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10, true
	}
	return 0, false
}
