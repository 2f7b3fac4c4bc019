// Package store persists campaign results on disk so suite runs can be
// incremental and distributed.
//
// It has two layers, both living under one directory and both specified
// in docs/STORE.md:
//
//   - a content-addressed result cache: one JSON entry per campaign,
//     keyed by the plan fingerprint of inject.(*ExecPlan).Fingerprint
//     and appended as one framed record to a segment log. Entries have
//     one canonical encoding, written and read by the hand-written
//     codec in codec.go, which accepts no other bytes.
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
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core/inject"
)

// Store is a result store rooted at one directory. Methods are safe for
// concurrent use by the suite scheduler's goroutines, and any number of
// handles, in one process or many, may share the directory: each handle
// appends only to the segment it created, and announces that segment in
// the directory's name log before writing a record to it. A lookup that
// misses opens the segments announced since the last look and re-scans
// the ones that have grown; only Open lists the directory.
//
// A Store keeps one read descriptor per segment it has indexed, which
// every read of that segment's records uses, one on the name log, and
// the append descriptor of its own segment. Close releases them; the
// runtime closes those of a Store dropped unclosed once it is
// unreachable.
type Store struct {
	dir string
	// names is the name log, open for reading and for appending.
	names *os.File

	mu sync.Mutex
	// namesEnd is how much of the name log has been read: up to and
	// including its last newline at the last look, when it was
	// namesSize bytes long.
	namesEnd, namesSize int64
	// segs is every segment indexed so far, by file name; order holds
	// the same segments in the order they were found.
	segs  map[string]*segment
	order []*segment
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
	// r is the read descriptor: scans and lookups of the segment's
	// records read through it, so a hit costs no open.
	r *os.File
	// f is the append descriptor, set only on the handle's own segment.
	// Retiring the segment closes f alone, so its records stay readable.
	f *os.File
	// end is where the next scan resumes: the end of the last whole
	// record, or the first damaged byte no later record follows.
	end int64
	// size is the file size the last scan (or append) saw, so a re-scan
	// skips segments that have not grown. It is -1 until the first scan.
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
// indexed the entries its segments already hold. It lists the segment
// directory, so it also finds segments that were never announced in the
// name log, such as those an older binary wrote.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{segmentDir, shardDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, segmentDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := os.OpenFile(filepath.Join(dir, nameLog), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, names: names, segs: map[string]*segment{}, index: map[string]int32{}}
	for _, de := range ents {
		s.openSegmentLocked(de.Name())
	}
	s.refreshLocked()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the handle's descriptors. The Store must not be used
// after it; a process that opens many stores calls it so as not to wait
// for the runtime to close them.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := []error{s.names.Close()}
	for _, seg := range s.order {
		errs = append(errs, seg.r.Close())
		if seg.f != nil {
			errs = append(errs, seg.f.Close())
		}
	}
	return errors.Join(errs...)
}

// On-disk layout (see docs/STORE.md).
const (
	segmentDir = "segments"
	segmentExt = ".seg"
	nameLog    = "segments.names"
	shardDir   = "shards"
)

// A record is a header line followed by the body, the cache entry in
// its canonical encoding (codec.go). The header is the ASCII record
// separator 0x1E, the 64-hex fingerprint, a space, the body length in
// 8 hex digits, and a newline. The encoder escapes every control
// character (FuzzEncodeResult holds it to that), so 0x1E never occurs
// inside a body: a scan that meets damage resynchronises on the next
// 0x1E.
const (
	recordSep = 0x1e
	headerLen = 1 + 64 + 1 + 8 + 1
)

// Get returns the cached result stored under the fingerprint. Any
// failure to produce a trustworthy entry — no record, a torn or
// unreadable one, bytes that are not the canonical encoding, a foreign
// format or engine version, a fingerprint mismatch — is a cache miss,
// never an error: the caller's fallback (re-running the campaign) is
// always correct. When the store holds several copies of the entry,
// the newest one that validates replays.
func (s *Store) Get(fp string) (*inject.Result, bool) {
	buf := getBuf()
	defer putBuf(buf)
	for l, ok := s.newest(fp); ok; l, ok = s.older(l) {
		b, err := l.read(*buf)
		if err != nil {
			continue
		}
		*buf = b
		if res, err := decodeEntry(b, fp); err == nil {
			return res, true
		}
	}
	return nil, false
}

// Has reports whether the store indexes a record under the
// fingerprint, without reading it. A record that is there but damaged
// still counts: Has is the cheap existence check for a writer deciding
// whether to Put, and Get remains the only judge of whether the entry
// replays.
func (s *Store) Has(fp string) bool {
	_, ok := s.newest(fp)
	return ok
}

// newest returns the location of fp's newest record. A fingerprint
// the index lacks triggers a refresh first, so entries other handles
// have written since are found.
func (s *Store) newest(fp string) (location, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[fp]
	if !ok {
		s.refreshLocked()
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

// read reads the record body at l into dst's backing array, which it
// grows if the body does not fit.
func (l location) read(dst []byte) ([]byte, error) {
	if cap(dst) < l.n {
		dst = make([]byte, l.n)
	}
	dst = dst[:l.n]
	if _, err := l.seg.r.ReadAt(dst, l.off); err != nil {
		return nil, err
	}
	return dst, nil
}

// Put stores a campaign result under its fingerprint. label is a
// human-readable job name kept alongside for inspection; it does not
// participate in addressing. The record is encoded into a pooled
// buffer and appended in a single write to the handle's own segment,
// which the first Put creates. A re-Put of an existing address appends
// a byte-identical copy — the address is content-derived.
func (s *Store) Put(fp, label string, res *inject.Result) error {
	if !validFingerprint(fp) {
		return fmt.Errorf("store: malformed fingerprint %q (want 64 hex chars)", fp)
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendEntry(appendHeader(*buf, fp, 0), fp, label, res)
	return s.append(fp, *buf)
}

// append writes one record: rec is a header whose length is still to
// be filled in, followed by the entry body.
func (s *Store) append(fp string, rec []byte) error {
	n := len(rec) - headerLen
	if int64(n) > maxRecordBody {
		return fmt.Errorf("store: entry %s is %d bytes, over the %d-byte record limit", fp, n, maxRecordBody)
	}
	appendHeader(rec[:0], fp, n)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		if err := s.createLocked(); err != nil {
			return err
		}
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
	s.addLocked(fp, w, w.end+headerLen, n)
	w.end += int64(len(rec))
	w.size = w.end
	return nil
}

// createLocked creates the handle's own segment and announces it in
// the name log before any record is written to it: a lookup that misses
// reads the log before it re-scans, so once a Put returns, every handle's
// next miss finds its record.
func (s *Store) createLocked() error {
	f, err := os.CreateTemp(filepath.Join(s.dir, segmentDir), "*"+segmentExt)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := filepath.Base(f.Name())
	r, err := os.Open(f.Name())
	if err == nil {
		if _, err = s.names.WriteString("\n" + name + "\n"); err != nil {
			r.Close()
		}
	}
	if err != nil {
		// The segment is still empty: drop it, and the next Put tries
		// again with a new one.
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.own = &segment{r: r, f: f}
	s.segs[name] = s.own
	s.order = append(s.order, s.own)
	return nil
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

// refreshLocked indexes every record other handles have written since
// the last refresh: it opens the segments announced in the name log
// since, then scans the whole of new segments and the tail of segments
// that have grown. The handle's own segment is indexed as it is
// written.
func (s *Store) refreshLocked() {
	s.readNamesLocked()
	for _, seg := range s.order {
		if seg == s.own {
			continue
		}
		info, err := seg.r.Stat()
		if err != nil || info.Size() == seg.size {
			continue
		}
		s.scanSegmentLocked(seg, info.Size())
	}
}

// readNamesLocked opens the segments announced in the name log since
// the last look. Every announcement is a line that also starts with a
// newline, and the log is read only up to its last newline, so a line
// still being written waits for the next look, and a line a crash tore
// ends at the next announcement's leading newline instead of swallowing
// that name.
func (s *Store) readNamesLocked() {
	info, err := s.names.Stat()
	if err != nil || info.Size() == s.namesSize {
		return
	}
	s.namesSize = info.Size()
	if s.namesSize <= s.namesEnd {
		return
	}
	buf := make([]byte, s.namesSize-s.namesEnd)
	n, _ := s.names.ReadAt(buf, s.namesEnd)
	buf = buf[:bytes.LastIndexByte(buf[:n], '\n')+1]
	s.namesEnd += int64(len(buf))
	for len(buf) > 0 {
		i := bytes.IndexByte(buf, '\n')
		s.openSegmentLocked(string(buf[:i]))
		buf = buf[i+1:]
	}
}

// openSegmentLocked opens the segment of that file name for the next
// refresh to scan, unless the handle knows it already or the name is
// not a plain segment file name, as a blank line of the name log is
// not. A segment that does not open stays unknown: its records are
// misses.
func (s *Store) openSegmentLocked(name string) {
	if filepath.Ext(name) != segmentExt || filepath.Base(name) != name || s.segs[name] != nil {
		return
	}
	r, err := os.Open(filepath.Join(s.dir, segmentDir, name))
	if err != nil {
		return
	}
	seg := &segment{r: r, size: -1}
	s.segs[name] = seg
	s.order = append(s.order, seg)
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
	f := seg.r
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
