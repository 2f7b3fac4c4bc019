package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// shardFile is the on-disk shard artifact: one process's slice of a
// deterministic suite partition, self-describing enough to be merged
// with its siblings on another machine.
type shardFile struct {
	Store  string `json:"store"`
	Engine string `json:"engine"`
	// Shard and Of are the partition coordinates (k of n).
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// TotalJobs is the length of the full, unsharded job list; every
	// sibling artifact must agree on it for the partitions to line up.
	TotalJobs int `json:"total_jobs"`
	// Catalog is the label of every job in the full list, in order.
	// Each shard sees the whole catalog before partitioning, so
	// siblings produced from the same catalog agree on it — and the
	// merge rejects siblings that do not (a renamed or reordered
	// catalog between shard runs would otherwise splice results from
	// different suite generations into one report).
	Catalog []string   `json:"catalog"`
	Jobs    []shardJob `json:"jobs"`
}

// shardJob is one job's outcome inside a shard artifact.
type shardJob struct {
	// Index is the job's position in the full job list — the merge key.
	Index             int           `json:"index"`
	Name              string        `json:"name"`
	Variant           string        `json:"variant,omitempty"`
	Fingerprint       string        `json:"fingerprint,omitempty"`
	SourceFingerprint string        `json:"source_fingerprint,omitempty"`
	Cached            bool          `json:"cached,omitempty"`
	CachedSource      bool          `json:"cached_source,omitempty"`
	Err               string        `json:"err,omitempty"`
	Result            *wireCampaign `json:"result,omitempty"`
}

// ShardInfo describes one merged artifact, for reports.
type ShardInfo struct {
	// Shard and Of are the partition coordinates.
	Shard, Of int
	// Jobs is the number of jobs the artifact carries.
	Jobs int
	// Path is the artifact file.
	Path string
}

// shardPath names the artifact for shard k of n.
func (s *Store) shardPath(sp sched.ShardSpec) string {
	return filepath.Join(s.dir, shardDir, fmt.Sprintf("shard-%d-of-%d.json", sp.K, sp.N))
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
	f := &shardFile{
		Store:     FormatVersion,
		Engine:    inject.EngineVersion,
		Shard:     sp.K,
		Of:        sp.N,
		TotalJobs: len(catalog),
		Catalog:   catalog,
		Jobs:      make([]shardJob, len(indices)),
	}
	for i, c := range sr.Campaigns {
		j := shardJob{
			Index:             indices[i],
			Name:              c.Job.Name,
			Variant:           c.Job.Variant,
			Fingerprint:       c.Fingerprint,
			SourceFingerprint: c.SourceFingerprint,
			Cached:            c.Cached,
			CachedSource:      c.CachedSource,
		}
		if c.Err != nil {
			j.Err = c.Err.Error()
		}
		if c.Result != nil {
			j.Result = toWire(c.Result)
		}
		f.Jobs[i] = j
	}
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("store: encode shard %s: %w", sp, err)
	}
	return writeAtomic(s.shardPath(sp), b)
}

// MergeShards reads every shard artifact in the store and recombines
// them into the SuiteResult an unsharded run over the same job list
// would have produced: campaigns land at their recorded global indices,
// so plan order — and with it every downstream report and ClusterSuite
// pass — is preserved exactly.
//
// The artifacts must form one complete, consistent partition: same
// format and engine version, same shard count and total job count,
// every index covered exactly once. Anything else is an error naming
// the offending artifact, never a silently partial merge.
func (s *Store) MergeShards() (*sched.SuiteResult, []ShardInfo, error) {
	paths, err := filepath.Glob(filepath.Join(s.dir, shardDir, "shard-*-of-*.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("store: no shard artifacts under %s", filepath.Join(s.dir, shardDir))
	}
	sort.Strings(paths)

	var (
		sr    *sched.SuiteResult
		infos []ShardInfo
		first *shardFile
		seen  map[int]string // global index -> artifact that filled it
	)
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		var f shardFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, nil, fmt.Errorf("store: parse %s: %w", path, err)
		}
		if f.Store != FormatVersion || f.Engine != inject.EngineVersion {
			return nil, nil, fmt.Errorf("store: %s was written by %s/%s, want %s/%s",
				path, f.Store, f.Engine, FormatVersion, inject.EngineVersion)
		}
		if f.TotalJobs != len(f.Catalog) {
			return nil, nil, fmt.Errorf("store: %s claims %d jobs but its catalog names %d", path, f.TotalJobs, len(f.Catalog))
		}
		if first == nil {
			first = &f
			sr = &sched.SuiteResult{Campaigns: make([]sched.CampaignResult, f.TotalJobs)}
			seen = make(map[int]string, f.TotalJobs)
		} else if f.Of != first.Of || f.TotalJobs != first.TotalJobs {
			return nil, nil, fmt.Errorf("store: %s is shard ?/%d over %d jobs, siblings are ?/%d over %d",
				path, f.Of, f.TotalJobs, first.Of, first.TotalJobs)
		} else if !equalCatalogs(f.Catalog, first.Catalog) {
			return nil, nil, fmt.Errorf("store: %s was produced from a different job catalog than its siblings (did the catalog change between shard runs?)", path)
		}
		infos = append(infos, ShardInfo{Shard: f.Shard, Of: f.Of, Jobs: len(f.Jobs), Path: path})
		for _, j := range f.Jobs {
			if j.Index < 0 || j.Index >= f.TotalJobs {
				return nil, nil, fmt.Errorf("store: %s: job index %d out of range [0,%d)", path, j.Index, f.TotalJobs)
			}
			label := sched.Job{Name: j.Name, Variant: j.Variant}.Label()
			if label != f.Catalog[j.Index] {
				return nil, nil, fmt.Errorf("store: %s: job %d is %q, but the catalog names it %q", path, j.Index, label, f.Catalog[j.Index])
			}
			if prev, dup := seen[j.Index]; dup {
				return nil, nil, fmt.Errorf("store: job %d appears in both %s and %s", j.Index, prev, path)
			}
			seen[j.Index] = path
			c := sched.CampaignResult{
				Job:               sched.Job{Name: j.Name, Variant: j.Variant},
				Fingerprint:       j.Fingerprint,
				SourceFingerprint: j.SourceFingerprint,
				Cached:            j.Cached,
				CachedSource:      j.CachedSource,
			}
			if j.Err != "" {
				c.Err = errors.New(j.Err)
			}
			if j.Result != nil {
				c.Result = fromWire(j.Result)
			}
			sr.Campaigns[j.Index] = c
		}
	}
	if len(seen) != first.TotalJobs {
		var missing []int
		for i := 0; i < first.TotalJobs; i++ {
			if _, ok := seen[i]; !ok {
				missing = append(missing, i)
			}
		}
		return nil, nil, fmt.Errorf("store: incomplete partition: %d of %d jobs covered, missing indices %v (is a shard artifact absent?)",
			len(seen), first.TotalJobs, missing)
	}
	// The glob order is lexical ("shard-10-…" before "shard-2-…");
	// report shards numerically.
	sort.Slice(infos, func(i, j int) bool { return infos[i].Shard < infos[j].Shard })
	return sr, infos, nil
}

// equalCatalogs compares two job-label lists.
func equalCatalogs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeAtomic writes a shard artifact through a same-directory temp
// file and rename, so concurrent readers and crashed writers never
// surface a partial artifact. Only a failed write leaves a temp file to
// remove; a renamed one no longer exists under its temp name.
func writeAtomic(path string, b []byte) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
