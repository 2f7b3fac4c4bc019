package store

import (
	"encoding/json"

	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// The reference codec: the encoding/json path codec.go replaced. The
// canonical bytes are by definition what json.Marshal writes for the
// entry envelope around wireCampaign and for a shardFile, so the
// hand-written encoders must match it byte for byte, and the
// hand-written readers (decodeEntry, DecodeResult, MergeShards) must
// agree with json.Unmarshal followed by fromWire on every input they
// accept.

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

// referenceEncodeEntry is the cache entry Put wrote before codec.go.
func referenceEncodeEntry(fp, label string, r *inject.Result) ([]byte, error) {
	return json.Marshal(&entry{
		Store:       FormatVersion,
		Engine:      inject.EngineVersion,
		Fingerprint: fp,
		Label:       label,
		Result:      toWire(r),
	})
}

// referenceDecodeEntry is Get's decode and validation before codec.go.
func referenceDecodeEntry(b []byte, fp string) (*inject.Result, bool) {
	var e entry
	if json.Unmarshal(b, &e) != nil || !e.valid(fp) {
		return nil, false
	}
	return fromWire(e.Result), true
}

// referenceEncodeResult is EncodeResult before codec.go.
func referenceEncodeResult(r *inject.Result) ([]byte, error) {
	return json.Marshal(toWire(r))
}

// referenceDecodeResult is DecodeResult before codec.go.
func referenceDecodeResult(b []byte) (*inject.Result, error) {
	var w wireCampaign
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, err
	}
	return fromWire(&w), nil
}

// toWire converts a result to its wire form, which leaves out the
// clean trace.
func toWire(r *inject.Result) *wireCampaign {
	return &wireCampaign{
		Campaign:       r.Campaign,
		TotalSites:     r.TotalSites,
		PerturbedSites: r.PerturbedSites,
		Injections:     r.Injections,
	}
}

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

// referenceEncodeShard is the artifact WriteShard wrote before
// encodeShard: json.Marshal over a shardFile.
func referenceEncodeShard(sp sched.ShardSpec, catalog []string, indices []int, sr *sched.SuiteResult) ([]byte, error) {
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
	return json.Marshal(f)
}

// wireCampaign is the serialised form of an inject.Result: every
// field but the clean trace, as plain exported values.
//
// Its encoding/json form is the canonical encoding codec.go writes and
// reads by hand.
type wireCampaign struct {
	Campaign       string   `json:"campaign"`
	TotalSites     []string `json:"total_sites"`
	PerturbedSites []string `json:"perturbed_sites,omitempty"`
	// Injections round-trip natively: inject.Injection and its nested
	// policy.Violation carry only exported scalar fields.
	Injections []inject.Injection `json:"injections"`
}

// fromWire converts a wire campaign back to a result, whose CleanTrace
// is nil.
func fromWire(w *wireCampaign) *inject.Result {
	return &inject.Result{
		Campaign:       w.Campaign,
		TotalSites:     w.TotalSites,
		PerturbedSites: w.PerturbedSites,
		Injections:     w.Injections,
	}
}
