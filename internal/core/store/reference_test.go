package store

import (
	"encoding/json"

	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// The reference codec: the encoding/json path codec.go replaced. The
// canonical bytes are by definition what json.Marshal writes for the
// entry envelope around wireCampaign, so the hand-written encoder must
// match it byte for byte, and the hand-written decoder must agree with
// json.Unmarshal followed by fromWire on every input it accepts.

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

// toWire converts a result to its wire form.
func toWire(r *inject.Result) *wireCampaign {
	w := &wireCampaign{
		Campaign:       r.Campaign,
		CleanTrace:     make([]wireEvent, len(r.CleanTrace)),
		TotalSites:     r.TotalSites,
		PerturbedSites: r.PerturbedSites,
		Injections:     r.Injections,
	}
	for i := range r.CleanTrace {
		ev := &r.CleanTrace[i]
		we := wireEvent{
			Call: ev.Call,
			Result: wireCallResult{
				Data: ev.Result.Data,
				Str:  ev.Result.Str,
				N:    ev.Result.N,
				Flag: ev.Result.Flag,
			},
			ResolvedPath: ev.ResolvedPath,
			Mutated:      ev.Mutated,
		}
		if ev.Result.Err != nil {
			we.Result.Err = ev.Result.Err.Error()
		}
		w.CleanTrace[i] = we
	}
	return w
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
