package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

	"repro/internal/core/atomicfile"
	"repro/internal/core/inject"
	"repro/internal/core/jsonstr"
	"repro/internal/core/sched"
)

// ShardInfo describes one merged artifact, for reports.
type ShardInfo struct {
	// Shard and Of are the partition coordinates.
	Shard, Of int
	// Jobs is the number of jobs the artifact carries.
	Jobs int
	// Path is the artifact file.
	Path string
}

// shardPath names the artifact for shard k of n of the store at dir.
func shardPath(dir string, sp sched.ShardSpec) string {
	return filepath.Join(dir, shardDir, fmt.Sprintf("shard-%d-of-%d.json", sp.K, sp.N))
}

// WriteShard persists one shard's suite result as a mergeable artifact.
// catalog is the label of every job in the full, unsharded list; sr
// must be the result of running exactly the jobs ShardJobs selected for
// sp out of that list, and indices their global positions (the second
// ShardJobs return).
func (s *Store) WriteShard(sp sched.ShardSpec, catalog []string, indices []int, sr *sched.SuiteResult) error {
	if len(indices) != len(sr.Campaigns) {
		return fmt.Errorf("store: shard %s: %d indices for %d campaigns", sp, len(indices), len(sr.Campaigns))
	}
	return writeAtomic(shardPath(s.dir, sp), encodeShard(sp, catalog, indices, sr))
}

// encodeShard writes the shard artifact, one process's slice of a
// deterministic suite partition, self-describing enough to be merged
// with its siblings on another machine. It is one object: "store" and
// "engine", the versions; "shard" and "of", the partition coordinates
// k of n; "total_jobs", the length of the full job list; "catalog",
// the label of every job in that list, in order, on which siblings
// must agree, so a catalog renamed or reordered between shard runs
// cannot splice two suite generations into one report; and "jobs",
// each its global "index" (the merge key) and then the members of the
// job's record (Outcome).
//
// It is written without reflection: exactly the bytes json.Marshal
// writes for sr's campaigns at their global indices (reference_test.go
// keeps that reference), each record written by AppendOutcome and its
// result by appendCampaign. A matrix artifact runs to megabytes, and
// append would grow it a quarter at a time, copying it each time; so
// each job is encoded on its own first, and the artifact is assembled
// in one buffer of its final size.
func encodeShard(sp sched.ShardSpec, catalog []string, indices []int, sr *sched.SuiteResult) []byte {
	head := getBuf()
	defer putBuf(head)
	h := append(*head, `{"store":`...)
	h = jsonstr.Append(h, FormatVersion)
	h = append(h, `,"engine":`...)
	h = jsonstr.Append(h, inject.EngineVersion)
	h = append(h, `,"shard":`...)
	h = strconv.AppendInt(h, int64(sp.K), 10)
	h = append(h, `,"of":`...)
	h = strconv.AppendInt(h, int64(sp.N), 10)
	h = append(h, `,"total_jobs":`...)
	h = strconv.AppendInt(h, int64(len(catalog)), 10)
	h = append(h, `,"catalog":`...)
	h = appendStrings(h, catalog)
	h = append(h, `,"jobs":[`...)
	*head = h

	jobs := make([][]byte, len(sr.Campaigns))
	n := len(h) + len(jobs) + len("]}")
	for i := range sr.Campaigns {
		jobs[i] = encode(func(dst []byte) []byte { return appendShardJob(dst, indices[i], &sr.Campaigns[i]) })
		n += len(jobs[i])
	}
	dst := append(make([]byte, 0, n), h...)
	for i, j := range jobs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, j...)
	}
	return append(dst, "]}"...)
}

// appendShardJob appends one campaign as a job of an artifact: its
// global index, then its record.
func appendShardJob(dst []byte, index int, c *sched.CampaignResult) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(index), 10)
	o := recordOf(c)
	return append(AppendOutcome(append(dst, ','), &o, c.Result), '}')
}

// MergeShards reads every shard artifact in the store at dir and
// recombines them into the SuiteResult an unsharded run over the same
// job list would have produced: campaigns land at their recorded
// global indices, so plan order — and with it every downstream report
// and ClusterSuite pass — is preserved exactly. It only reads: a
// directory that holds no artifacts, or does not exist, is an error
// and is left as it was.
//
// Each artifact is read with the store's codec and must be in the
// canonical form encodeShard writes; a result the codec rejects (one
// holding invalid UTF-8, say, which the writer turned into \ufffd) is
// an error naming the job. The artifacts must form one complete,
// consistent partition: same format and engine version, coordinates
// that match the file name, same shard count and total job count,
// every index covered exactly once. Anything else is an error naming
// the offending artifact, never a silently partial merge.
func MergeShards(dir string) (*sched.SuiteResult, []ShardInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, shardDir, "shard-*-of-*.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("store: no shard artifacts under %s", filepath.Join(dir, shardDir))
	}
	sort.Strings(paths)

	var m merge
	var infos []ShardInfo
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		info, err := m.add(dir, path, b)
		if err != nil {
			return nil, nil, err
		}
		infos = append(infos, info)
	}
	if total := len(m.catalog); len(m.seen) != total {
		var missing []int
		for i := 0; i < total; i++ {
			if _, ok := m.seen[i]; !ok {
				missing = append(missing, i)
			}
		}
		return nil, nil, fmt.Errorf("store: incomplete partition: %d of %d jobs covered, missing indices %v (is a shard artifact absent?)",
			len(m.seen), total, missing)
	}
	// The glob order is lexical ("shard-10-…" before "shard-2-…");
	// report shards numerically.
	sort.Slice(infos, func(i, j int) bool { return infos[i].Shard < infos[j].Shard })
	return m.sr, infos, nil
}

// merge is MergeShards' state: the suite result the artifacts read so
// far fill, and what the first artifact fixed for its siblings.
type merge struct {
	sr      *sched.SuiteResult
	of      int
	catalog []string
	seen    map[int]string // global index -> artifact that filled it
}

// add reads the artifact b, found at path, checks it against its file
// name and its siblings so far, and files its jobs.
func (m *merge) add(dir, path string, b []byte) (ShardInfo, error) {
	d := decoder{Decoder: jsonstr.NewDecoder(b)}
	d.Expect(`{"store":`)
	st := d.str()
	d.Expect(`,"engine":`)
	eng := d.str()
	d.Expect(`,"shard":`)
	k := d.Int()
	d.Expect(`,"of":`)
	n := d.Int()
	d.Expect(`,"total_jobs":`)
	total := d.Int()
	d.Expect(`,"catalog":`)
	catalog := d.strList()
	d.Expect(`,"jobs":[`)
	if err := d.Err(); err != nil {
		return ShardInfo{}, fmt.Errorf("store: parse %s: %w", path, err)
	}
	if st != FormatVersion || eng != inject.EngineVersion {
		return ShardInfo{}, fmt.Errorf("store: %s was written by %s/%s, want %s/%s",
			path, st, eng, FormatVersion, inject.EngineVersion)
	}
	if n < 1 || k < 1 || k > n {
		return ShardInfo{}, fmt.Errorf("store: %s claims to be shard %d of %d", path, k, n)
	}
	if want := shardPath(dir, sched.ShardSpec{K: k, N: n}); path != want {
		return ShardInfo{}, fmt.Errorf("store: %s holds shard %d of %d, which is written to %s", path, k, n, filepath.Base(want))
	}
	if total != len(catalog) {
		return ShardInfo{}, fmt.Errorf("store: %s claims %d jobs but its catalog names %d", path, total, len(catalog))
	}
	if m.sr == nil {
		m.sr = &sched.SuiteResult{Campaigns: make([]sched.CampaignResult, total)}
		m.of, m.catalog = n, catalog
		m.seen = make(map[int]string, total)
	} else if n != m.of || total != len(m.catalog) {
		return ShardInfo{}, fmt.Errorf("store: %s is shard ?/%d over %d jobs, siblings are ?/%d over %d",
			path, n, total, m.of, len(m.catalog))
	} else if !slices.Equal(catalog, m.catalog) {
		return ShardInfo{}, fmt.Errorf("store: %s was produced from a different job catalog than its siblings (did the catalog change between shard runs?)", path)
	}

	info := ShardInfo{Shard: k, Of: n, Path: path}
	for ; d.next(info.Jobs); info.Jobs++ {
		if err := m.job(&d, path); err != nil {
			return ShardInfo{}, err
		}
	}
	d.Expect("}")
	d.End()
	if err := d.Err(); err != nil {
		return ShardInfo{}, fmt.Errorf("store: parse %s: %w", path, err)
	}
	return info, nil
}

// job reads one job of the artifact at path and files it at its
// global index, which must be in the catalog's range, hold the job the
// catalog names there, and not be filled yet.
func (m *merge) job(d *decoder, path string) error {
	var o Outcome
	d.Expect(`{"index":`)
	idx := d.Int()
	d.Expect(",")
	res := d.outcome(&o, false)
	d.Expect("}")
	label := o.Label()
	if err := d.Err(); err != nil {
		if o.Name == "" {
			return fmt.Errorf("store: parse %s: %w", path, err)
		}
		return fmt.Errorf("store: %s: job %d (%s): %w", path, idx, label, err)
	}
	if idx < 0 || idx >= len(m.catalog) {
		return fmt.Errorf("store: %s: job index %d out of range [0,%d)", path, idx, len(m.catalog))
	}
	if label != m.catalog[idx] {
		return fmt.Errorf("store: %s: job %d is %q, but the catalog names it %q", path, idx, label, m.catalog[idx])
	}
	if prev, dup := m.seen[idx]; dup {
		return fmt.Errorf("store: job %d appears in both %s and %s", idx, prev, path)
	}
	m.seen[idx] = path
	m.sr.Campaigns[idx] = o.campaignResult(res)
	return nil
}

// writeAtomic writes a shard artifact whole, so concurrent readers and
// crashed writers never surface a partial artifact.
func writeAtomic(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := atomicfile.Write(path, b, 0o600); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
