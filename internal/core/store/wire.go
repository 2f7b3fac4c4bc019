package store

import (
	"errors"

	"repro/internal/core/inject"
	"repro/internal/interpose"
)

// FormatVersion identifies the on-disk schema of cache entries and shard
// artifacts. Readers reject files written under a different format; see
// docs/STORE.md for the schema itself.
const FormatVersion = "eptest-store/1"

// wireCampaign is the serialised form of an inject.Result. Everything is
// a plain exported value; the one impedance mismatch with the in-memory
// type is the trace events' error field, which travels as its message.
//
// Its encoding/json form is the canonical encoding codec.go writes and
// reads by hand. MergeShards still reads shard artifacts through
// encoding/json, which is why it and fromWire remain; toWire lives on
// in reference_test.go, for the encoding/json reference.
type wireCampaign struct {
	Campaign       string      `json:"campaign"`
	CleanTrace     []wireEvent `json:"clean_trace"`
	TotalSites     []string    `json:"total_sites"`
	PerturbedSites []string    `json:"perturbed_sites,omitempty"`
	// Injections round-trip natively: inject.Injection and its nested
	// policy.Violation carry only exported scalar fields.
	Injections []inject.Injection `json:"injections"`
}

// wireEvent is one serialised trace event.
type wireEvent struct {
	Call         interpose.Call `json:"call"`
	Result       wireCallResult `json:"result"`
	ResolvedPath string         `json:"resolved_path,omitempty"`
	Mutated      bool           `json:"mutated,omitempty"`
}

// wireCallResult mirrors interpose.Result with the error flattened to
// its message ("" means nil).
type wireCallResult struct {
	Data []byte `json:"data,omitempty"`
	Str  string `json:"str,omitempty"`
	N    int    `json:"n,omitempty"`
	Flag bool   `json:"flag,omitempty"`
	Err  string `json:"err,omitempty"`
}

// fromWire converts a wire campaign back to a result.
func fromWire(w *wireCampaign) *inject.Result {
	r := &inject.Result{
		Campaign:       w.Campaign,
		CleanTrace:     make([]interpose.Event, len(w.CleanTrace)),
		TotalSites:     w.TotalSites,
		PerturbedSites: w.PerturbedSites,
		Injections:     w.Injections,
	}
	for i := range w.CleanTrace {
		we := &w.CleanTrace[i]
		ev := interpose.Event{
			Call: we.Call,
			Result: interpose.Result{
				Data: we.Result.Data,
				Str:  we.Result.Str,
				N:    we.Result.N,
				Flag: we.Result.Flag,
			},
			ResolvedPath: we.ResolvedPath,
			Mutated:      we.Mutated,
		}
		if we.Result.Err != "" {
			ev.Result.Err = errors.New(we.Result.Err)
		}
		r.CleanTrace[i] = ev
	}
	return r
}
