package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core/obs"
	"repro/internal/core/store"
)

// The coordinator's HTTP surface, mounted beside the store's /v1/meta
// and /v1/campaigns/{fp} endpoints by `eptest -serve-coord`
// (docs/COORDINATOR.md spells out the schemas and failure semantics):
//
//	POST /v1/coord/register -> RegisterResponse
//	POST /v1/coord/claim    -> ClaimResponse
//	POST /v1/coord/renew    -> RenewResponse
//	POST /v1/coord/complete -> CompleteResponse
//	GET  /v1/coord/state    -> Stats
const (
	// Prefix is the coordinator's endpoint namespace, for mounting the
	// server on a shared mux.
	Prefix       = "/v1/coord/"
	registerPath = Prefix + "register"
	claimPath    = Prefix + "claim"
	renewPath    = Prefix + "renew"
	completePath = Prefix + "complete"
	statePath    = Prefix + "state"
)

// maxBodyBytes bounds request bodies. Completion outcomes carry one
// campaign result each — tens of kilobytes for the largest catalog
// campaigns — so this is generous headroom, not a limit to meet.
const maxBodyBytes = 256 << 20

// Server exposes a Coordinator over HTTP.
type Server struct {
	co  *Coordinator
	mux *http.ServeMux
}

// NewServer returns an http.Handler serving co under Prefix.
func NewServer(co *Coordinator) *Server {
	s := &Server{co: co, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST "+registerPath, s.register)
	s.mux.HandleFunc("POST "+claimPath, s.claim)
	s.mux.HandleFunc("POST "+renewPath, s.renew)
	s.mux.HandleFunc("POST "+completePath, s.complete)
	s.mux.HandleFunc("GET "+statePath, s.state)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// readBody drains a bounded request body, writing the HTTP error
// itself so handlers can simply return.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return b, true
}

// reply writes a JSON response body.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// coordErr maps coordinator-state errors onto 409 Conflict: the
// request was well-formed, but the queue disagrees with its premise
// (unknown worker, catalog mismatch, label mismatch).
func coordErr(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusConflict)
}

// pollInterval is the claim-poll cadence the server suggests to
// waiting workers: fast enough that a requeued job is picked up
// promptly, slow enough that a parked fleet is not a busy loop.
func (s *Server) pollInterval() time.Duration {
	if p := s.co.LeaseTTL() / 4; p < 200*time.Millisecond {
		return p
	}
	return 200 * time.Millisecond
}

func (s *Server) register(w http.ResponseWriter, r *http.Request) {
	b, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeRegister(b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, err := s.co.Register(req.Worker, req.Catalog)
	if err != nil {
		coordErr(w, err)
		return
	}
	reply(w, RegisterResponse{
		Proto:       ProtocolVersion,
		WorkerID:    id,
		LeaseMillis: s.co.LeaseTTL().Milliseconds(),
		PollMillis:  s.pollInterval().Milliseconds(),
		Jobs:        len(s.co.catalog),
		Resumed:     s.co.Resumed(),
	})
}

// claimHoldFor bounds how long a claim request long-polls before
// answering "wait": long enough that a parked fleet costs almost no
// request traffic, short enough that proxies and timeouts stay happy.
func (s *Server) claimHoldFor() time.Duration {
	if hold := s.co.LeaseTTL() / 2; hold < 2*time.Second {
		return hold
	}
	return 2 * time.Second
}

func (s *Server) claim(w http.ResponseWriter, r *http.Request) {
	b, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeClaim(b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Long-poll: while the queue is momentarily empty (every remaining
	// job leased to someone), hold the request open and retry on each
	// state change — a completion that drains the queue, or the next
	// lease expiry, whose sweep requeues work — so workers learn of
	// both within milliseconds instead of a poll interval later.
	deadline := time.Now().Add(s.claimHoldFor())
	for {
		// Snapshot the change channel BEFORE deciding, so an edge that
		// fires between the decision and the select is not lost.
		change := s.co.Changed()
		idx, status, err := s.co.Claim(req.WorkerID)
		if err != nil {
			coordErr(w, err)
			return
		}
		switch status {
		case ClaimGranted:
			reply(w, ClaimResponse{Status: statusClaimed, Index: idx, Label: s.co.catalog[idx]})
			return
		case ClaimDrained:
			reply(w, ClaimResponse{Status: statusDrained})
			return
		}
		now := time.Now()
		if !now.Before(deadline) {
			reply(w, ClaimResponse{Status: statusWait})
			return
		}
		wakeAt := deadline
		if exp, ok := s.co.NextExpiry(); ok && exp.Before(wakeAt) {
			wakeAt = exp
		}
		wait := time.Until(wakeAt) + time.Millisecond
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		timer := time.NewTimer(wait)
		select {
		case <-change:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

func (s *Server) renew(w http.ResponseWriter, r *http.Request) {
	b, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeRenew(b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	renewed, lost, err := s.co.Renew(req.WorkerID, req.Indices)
	if err != nil {
		coordErr(w, err)
		return
	}
	reply(w, RenewResponse{Renewed: renewed, Lost: lost})
}

func (s *Server) complete(w http.ResponseWriter, r *http.Request) {
	b, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeComplete(b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	dup, err := s.co.Complete(req.WorkerID, req.Index, req.Outcome)
	if err != nil {
		coordErr(w, err)
		return
	}
	reply(w, CompleteResponse{Duplicate: dup})
}

func (s *Server) state(w http.ResponseWriter, r *http.Request) {
	reply(w, s.co.Stats())
}

// Client speaks the coordinator protocol against a running
// `eptest -serve-coord`. Unlike the cache transport, coordinator calls
// do not degrade silently: a claim or completion that cannot reach the
// server is retried by the Source, and surfaced as an error when the
// server stays away — losing the coordinator means losing the queue,
// which a worker must report rather than paper over.
type Client struct {
	base  string
	hc    *http.Client
	token string

	workerID string
	lease    time.Duration
	poll     time.Duration
}

// ClientOption configures Dial.
type ClientOption func(*Client)

// WithToken makes the client send `Authorization: Bearer token` on
// every request, matching a server started with -auth-token.
func WithToken(token string) ClientOption {
	return func(c *Client) { c.token = token }
}

// WithMetrics instruments the client's transport: every coordinator
// round trip is recorded as eptest_http_client_* counters and latency
// samples in r, labelled by normalised route.
func WithMetrics(r *obs.Registry) ClientOption {
	return func(c *Client) { c.hc.Transport = obs.RoundTripper(r, c.hc.Transport) }
}

// Dial validates a coordinator URL and returns a client for it. No
// connection is attempted; Register is the first round trip.
func Dial(rawURL string, opts ...ClientOption) (*Client, error) {
	base, err := store.ValidateBaseURL(rawURL, "coordinator URL")
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	c := &Client{
		base: base,
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Base returns the coordinator URL the client was dialled with.
func (c *Client) Base() string { return c.base }

// WorkerID returns the id the coordinator assigned at Register.
func (c *Client) WorkerID() string { return c.workerID }

// LeaseTTL returns the lease duration the coordinator granted.
func (c *Client) LeaseTTL() time.Duration { return c.lease }

// PollInterval returns the claim-poll cadence the coordinator suggested.
func (c *Client) PollInterval() time.Duration { return c.poll }

// post issues one JSON round trip. Non-2xx statuses become errors
// carrying the server's diagnostic.
func (c *Client) post(path string, reqBody, respBody any) error {
	b, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("coord: encode %s: %w", path, err)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("coord: POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(respBody); err != nil {
		return fmt.Errorf("coord: decode %s response: %w", path, err)
	}
	return nil
}

// Register admits this client to the queue. catalog must be the full
// job-label list the worker was built with; the coordinator rejects a
// mismatch.
func (c *Client) Register(name string, catalog []string) error {
	var resp RegisterResponse
	err := c.post(registerPath, &RegisterRequest{Proto: ProtocolVersion, Worker: name, Catalog: catalog}, &resp)
	if err != nil {
		return err
	}
	if resp.WorkerID == "" || resp.LeaseMillis <= 0 {
		return fmt.Errorf("coord: register: malformed response (worker %q, lease %dms)", resp.WorkerID, resp.LeaseMillis)
	}
	c.workerID = resp.WorkerID
	c.lease = time.Duration(resp.LeaseMillis) * time.Millisecond
	c.poll = time.Duration(resp.PollMillis) * time.Millisecond
	if c.poll <= 0 {
		c.poll = 200 * time.Millisecond
	}
	return nil
}

// Claim asks for the next job.
func (c *Client) Claim() (idx int, status ClaimStatus, err error) {
	var resp ClaimResponse
	if err := c.post(claimPath, &ClaimRequest{Proto: ProtocolVersion, WorkerID: c.workerID}, &resp); err != nil {
		return 0, 0, err
	}
	switch resp.Status {
	case statusClaimed:
		if resp.Index < 0 {
			return 0, 0, fmt.Errorf("coord: claim granted a negative index %d", resp.Index)
		}
		return resp.Index, ClaimGranted, nil
	case statusWait:
		return 0, ClaimWait, nil
	case statusDrained:
		return 0, ClaimDrained, nil
	}
	return 0, 0, fmt.Errorf("coord: claim: unknown status %q", resp.Status)
}

// Renew heartbeats the given in-flight claims, returning the indices
// whose leases are lost.
func (c *Client) Renew(indices []int) (lost []int, err error) {
	var resp RenewResponse
	if err := c.post(renewPath, &RenewRequest{Proto: ProtocolVersion, WorkerID: c.workerID, Indices: indices}, &resp); err != nil {
		return nil, err
	}
	return resp.Lost, nil
}

// Complete reports one job's outcome; duplicate means the coordinator
// already had a result for the index and discarded this one.
func (c *Client) Complete(idx int, out Outcome) (duplicate bool, err error) {
	var resp CompleteResponse
	if err := c.post(completePath, &CompleteRequest{Proto: ProtocolVersion, WorkerID: c.workerID, Index: idx, Outcome: out}, &resp); err != nil {
		return false, err
	}
	return resp.Duplicate, nil
}

// State fetches the coordinator's stats snapshot.
func (c *Client) State() (Stats, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+statePath, nil)
	if err != nil {
		return Stats{}, fmt.Errorf("coord: %w", err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Stats{}, fmt.Errorf("coord: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return Stats{}, fmt.Errorf("coord: GET %s: %s: %s", statePath, resp.Status, bytes.TrimSpace(msg))
	}
	var st Stats
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&st); err != nil {
		return Stats{}, fmt.Errorf("coord: decode state: %w", err)
	}
	return st, nil
}
