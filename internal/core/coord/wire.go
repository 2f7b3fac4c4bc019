package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/core/inject"
	"repro/internal/core/jsonstr"
	"repro/internal/core/store"
)

// ProtocolVersion identifies the coordinator wire schema. Every
// request carries it and the server rejects mismatches, so a
// mixed-version fleet fails loudly at register time instead of
// corrupting a merge. Bump it on any incompatible change.
//
// Version 2 added the durable queue and named campaigns: register
// replies gained Resumed and the server grew the /v1/campaigns
// submission surface. Version-1 workers are refused at register — a
// fleet must upgrade together.
//
// Version 3 follows eptest-store/2: a completion's result is the
// campaign encoding without the clean trace, so a version-2 worker,
// whose completions would each get a 400, is refused at register.
const ProtocolVersion = "eptest-coord/3"

// Outcome is one completed job's record, a shard-artifact job without
// its index (store.Outcome). The coordinator records it verbatim. It
// decodes the result once per completion, before taking its lock, and
// again when it assembles the merged suite result.
type Outcome = store.Outcome

// RegisterRequest admits a worker to the queue.
type RegisterRequest struct {
	Proto  string `json:"proto"`
	Worker string `json:"worker"`
	// Catalog is the worker's full job-label list; the coordinator
	// rejects a mismatch with its own.
	Catalog []string `json:"catalog"`
}

// RegisterResponse returns the worker's identity and the lease terms.
type RegisterResponse struct {
	Proto    string `json:"proto"`
	WorkerID string `json:"worker_id"`
	// LeaseMillis is the claim TTL; renew well inside it (the client
	// heartbeats at a third).
	LeaseMillis int64 `json:"lease_ms"`
	// PollMillis is the suggested claim-poll interval while the queue
	// reports ClaimWait.
	PollMillis int64 `json:"poll_ms"`
	Jobs       int   `json:"jobs"`
	// Resumed reports that the coordinator rebuilt its queue from a
	// journal — the worker may be reattaching to a restarted service
	// mid-campaign.
	Resumed bool `json:"resumed,omitempty"`
}

// ClaimRequest asks for the next job.
type ClaimRequest struct {
	Proto    string `json:"proto"`
	WorkerID string `json:"worker_id"`
}

// Claim statuses on the wire.
const (
	statusClaimed = "claimed"
	statusWait    = "wait"
	statusDrained = "drained"
)

// ClaimResponse grants a lease ("claimed"), asks the worker to poll
// again ("wait"), or dismisses it ("drained").
type ClaimResponse struct {
	Status string `json:"status"`
	// Index and Label identify the granted job (status "claimed").
	// Index must not be omitempty: job 0 is a real index.
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`
}

// RenewRequest heartbeats the worker's in-flight claims.
type RenewRequest struct {
	Proto    string `json:"proto"`
	WorkerID string `json:"worker_id"`
	Indices  []int  `json:"indices"`
}

// RenewResponse lists which leases were extended and which are lost
// (expired-and-requeued, reclaimed, or already completed elsewhere).
type RenewResponse struct {
	Renewed []int `json:"renewed,omitempty"`
	Lost    []int `json:"lost,omitempty"`
}

// CompleteRequest reports one claimed job's outcome.
type CompleteRequest struct {
	Proto    string  `json:"proto"`
	WorkerID string  `json:"worker_id"`
	Index    int     `json:"index"`
	Outcome  Outcome `json:"outcome"`
}

// CompleteResponse acknowledges a completion; Duplicate marks a
// first-write-wins discard (the worker should treat it as success).
type CompleteResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
}

// Decode limits. A matrix catalog is ~600 labels; 1e6 jobs of headroom
// keeps the coordinator from allocating unboundedly for a hostile or
// corrupt request before validation rejects it.
const (
	maxCatalogJobs = 1 << 20
	maxWorkerName  = 256
)

// The Decode* helpers strictly parse and validate one request each.
// The coordinator mutates shared state on requests, so unlike the
// cache transport (where any confusion degrades to a miss) every
// malformed request must be rejected before it reaches the queue;
// these are also the surface the wire fuzzer drives.

// DecodeRegister parses and validates a register request.
func DecodeRegister(b []byte) (*RegisterRequest, error) {
	var r RegisterRequest
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Proto != ProtocolVersion {
		return nil, fmt.Errorf("coord: request speaks %q, server speaks %q", r.Proto, ProtocolVersion)
	}
	if r.Worker == "" || len(r.Worker) > maxWorkerName {
		return nil, errors.New("coord: worker name missing or too long")
	}
	if len(r.Catalog) == 0 || len(r.Catalog) > maxCatalogJobs {
		return nil, errors.New("coord: catalog missing or too large")
	}
	for _, l := range r.Catalog {
		if l == "" {
			return nil, errors.New("coord: catalog contains an empty label")
		}
	}
	return &r, nil
}

// DecodeClaim parses and validates a claim request.
func DecodeClaim(b []byte) (*ClaimRequest, error) {
	var r ClaimRequest
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Proto != ProtocolVersion {
		return nil, fmt.Errorf("coord: request speaks %q, server speaks %q", r.Proto, ProtocolVersion)
	}
	if r.WorkerID == "" || len(r.WorkerID) > maxWorkerName {
		return nil, errors.New("coord: worker id missing or too long")
	}
	return &r, nil
}

// DecodeRenew parses and validates a renew request.
func DecodeRenew(b []byte) (*RenewRequest, error) {
	var r RenewRequest
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Proto != ProtocolVersion {
		return nil, fmt.Errorf("coord: request speaks %q, server speaks %q", r.Proto, ProtocolVersion)
	}
	if r.WorkerID == "" || len(r.WorkerID) > maxWorkerName {
		return nil, errors.New("coord: worker id missing or too long")
	}
	if len(r.Indices) > maxCatalogJobs {
		return nil, errors.New("coord: too many renewal indices")
	}
	for _, i := range r.Indices {
		if i < 0 || i >= maxCatalogJobs {
			return nil, fmt.Errorf("coord: renewal index %d out of range", i)
		}
	}
	return &r, nil
}

// CampaignSpec is the body of POST /v1/campaigns: a named, filtered,
// prioritised view over the coordinator's catalog.
type CampaignSpec struct {
	// Name identifies the campaign in status endpoints and must be
	// unique among live campaigns.
	Name string `json:"name"`
	// Filter selects the member jobs with the sched.FilterJobs glob
	// language; empty means the full catalog.
	Filter string `json:"filter,omitempty"`
	// Priority biases claiming: pending jobs in higher-priority
	// unfinished campaigns are handed out first. Zero is the default
	// campaign's priority.
	Priority int `json:"priority,omitempty"`
	// Note is a free-form operator annotation echoed in status.
	Note string `json:"note,omitempty"`
}

// Campaign-spec limits. Names stay path- and label-safe; the rest are
// allocation bounds for a hostile request.
const (
	maxCampaignName = 64
	maxFilterLen    = 256
	maxNoteLen      = 1024
	maxPriority     = 1 << 20
)

// DecodeCampaignSpec parses and validates a campaign submission. Names
// are restricted to [A-Za-z0-9._-] so they embed safely in URL paths
// and metric labels, and a 64-hex-character name is rejected because
// GET /v1/campaigns/{fingerprint} is the cache transport's entry route
// on the same path space.
func DecodeCampaignSpec(b []byte) (*CampaignSpec, error) {
	var s CampaignSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	if s.Name == "" || len(s.Name) > maxCampaignName {
		return nil, errors.New("coord: campaign name missing or too long")
	}
	for i := 0; i < len(s.Name); i++ {
		c := s.Name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return nil, fmt.Errorf("coord: campaign name contains %q (allowed: letters, digits, '.', '_', '-')", c)
		}
	}
	if store.IsFingerprint(s.Name) {
		return nil, errors.New("coord: campaign name must not look like a cache fingerprint (64 hex characters)")
	}
	if len(s.Filter) > maxFilterLen {
		return nil, errors.New("coord: campaign filter too long")
	}
	if len(s.Note) > maxNoteLen {
		return nil, errors.New("coord: campaign note too long")
	}
	if s.Priority < -maxPriority || s.Priority > maxPriority {
		return nil, errors.New("coord: campaign priority out of range")
	}
	return &s, nil
}

// decodeComplete parses and validates a complete request, also
// returning the outcome's result decoded, the one decode the completion
// needs. The body must be in the canonical form appendComplete writes,
// the bytes json.Marshal writes for the request; anything else is an
// error. The envelope is read with jsonstr's cursor and the outcome
// with store.ReadOutcome. Whatever it accepts, json.Unmarshal accepts
// too and decodes to the same request, which holds no reference to b.
func decodeComplete(b []byte) (*CompleteRequest, *inject.Result, error) {
	d := jsonstr.NewDecoder(b)
	r := &CompleteRequest{}
	d.Expect(`{"proto":`)
	r.Proto = d.Str()
	d.Expect(`,"worker_id":`)
	r.WorkerID = d.Str()
	d.Expect(`,"index":`)
	r.Index = d.Int()
	d.Expect(`,"outcome":{`)
	res := store.ReadOutcome(&d, &r.Outcome)
	d.Expect("}}")
	d.End()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("coord: completion: %w", err)
	}
	if r.Proto != ProtocolVersion {
		return nil, nil, fmt.Errorf("coord: request speaks %q, server speaks %q", r.Proto, ProtocolVersion)
	}
	if r.WorkerID == "" || len(r.WorkerID) > maxWorkerName {
		return nil, nil, errors.New("coord: worker id missing or too long")
	}
	if r.Index < 0 || r.Index >= maxCatalogJobs {
		return nil, nil, fmt.Errorf("coord: completion index %d out of range", r.Index)
	}
	if r.Outcome.Name == "" {
		return nil, nil, errors.New("coord: completion outcome has no job name")
	}
	return r, res, nil
}

// appendComplete appends r exactly as json.Marshal writes it, without
// reflection: the envelope, and the outcome with store.AppendOutcome,
// whose result must be canonical bytes, or empty.
func appendComplete(dst []byte, r *CompleteRequest) []byte {
	dst = append(dst, `{"proto":`...)
	dst = jsonstr.Append(dst, r.Proto)
	dst = append(dst, `,"worker_id":`...)
	dst = jsonstr.Append(dst, r.WorkerID)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"outcome":{`...)
	dst = store.AppendOutcome(dst, &r.Outcome, nil)
	return append(dst, "}}"...)
}
