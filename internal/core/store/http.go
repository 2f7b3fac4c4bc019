package store

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core/inject"
	"repro/internal/core/obs"
)

// The store's HTTP surface, served on the coordinator's listener by
// `eptest -serve-coord` (docs/COORDINATOR.md spells out the schema and
// failure semantics):
//
//	GET /v1/meta            -> {"store": FormatVersion, "engine": inject.EngineVersion}
//	GET /v1/campaigns/{fp}  -> cache-entry JSON, or 404 on a miss
//	PUT /v1/campaigns/{fp}  <- cache-entry JSON; 204 on success
const (
	metaPath      = "/v1/meta"
	campaignsPath = "/v1/campaigns/"
)

// Server exposes a Store over HTTP. The wire format of every body is
// exactly the store's on-disk form — a GET streams the stored entry
// bytes, a PUT is validated and re-encoded through the same canonical
// codec the local store writes — so a store populated through the
// server is indistinguishable from one populated locally.
type Server struct {
	st  *Store
	mux *http.ServeMux
	h   http.Handler // mux, optionally wrapped in metrics middleware

	entryHit, entryMiss *obs.Counter
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerMetrics instruments the server: every request is recorded
// through the shared obs HTTP middleware (route/method/code counters
// and a latency histogram), and entry lookups additionally count hits
// and misses — the server-side view of the fleet's cache effectiveness.
func WithServerMetrics(r *obs.Registry) ServerOption {
	return func(s *Server) {
		const help = "Cache entries served, by lookup result."
		s.entryHit = r.Counter("eptest_store_entries_total", help, "result", "hit")
		s.entryMiss = r.Counter("eptest_store_entries_total", help, "result", "miss")
		s.h = obs.Middleware(r, s.mux)
	}
}

// NewServer returns an http.Handler serving st.
func NewServer(st *Store, opts ...ServerOption) *Server {
	s := &Server{st: st, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET "+metaPath, s.meta)
	s.mux.HandleFunc("GET "+campaignsPath+"{fp}", s.getCampaign)
	s.mux.HandleFunc("PUT "+campaignsPath+"{fp}", s.putCampaign)
	s.h = s.mux
	for _, o := range opts {
		o(s)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// meta reports the server's format and engine versions, so operators
// (and the CI smoke job) can probe liveness and compatibility.
func (s *Server) meta(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{
		"store":  FormatVersion,
		"engine": inject.EngineVersion,
	})
}

// IsFingerprint reports whether s has the shape of a content address:
// exactly 64 lowercase hex characters. The coordinator's campaign API
// uses it to tell campaign names apart from cache-entry fingerprints
// on the shared /v1/campaigns/ path space.
func IsFingerprint(s string) bool { return validFingerprint(s) }

// validFingerprint reports whether fp has the only shape either
// address space produces: 64 lowercase hex characters. Both handlers
// gate on it BEFORE the fingerprint reaches a filesystem path —
// ServeMux decodes %2F after pattern matching, so an unchecked
// PathValue can smuggle "../" segments out of the store directory.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// getCampaign streams the stored entry for a fingerprint. Misses are
// 404s (a malformed fingerprint cannot name an entry, so it is one
// too); the client turns any non-200 into a cache miss, so a confused
// or mismatched server only ever costs a re-run, never correctness.
func (s *Server) getCampaign(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		http.Error(w, "malformed fingerprint", http.StatusNotFound)
		return
	}
	// The newest record's body is served as stored, the way the
	// per-file layout served an entry's file: validating it is the
	// client's job, and a re-run's PUT supersedes a damaged copy.
	l, ok := s.st.newest(fp)
	var b []byte
	if ok {
		b, _ = l.body()
	}
	if b == nil {
		s.entryMiss.Inc()
		http.Error(w, "no entry for "+fp, http.StatusNotFound)
		return
	}
	s.entryHit.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// putCampaign validates and persists an uploaded cache entry. The body
// must be a well-formed entry whose versions match the server's and
// whose fingerprint matches the URL; anything else is rejected so one
// misbuilt worker cannot poison the shared store.
func (s *Server) putCampaign(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		http.Error(w, "malformed fingerprint (want 64 hex chars)", http.StatusBadRequest)
		return
	}
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if e.Store != FormatVersion || e.Engine != inject.EngineVersion {
		http.Error(w, fmt.Sprintf("entry written by %s/%s, server is %s/%s",
			e.Store, e.Engine, FormatVersion, inject.EngineVersion), http.StatusConflict)
		return
	}
	if e.Fingerprint != fp || e.Result == nil {
		http.Error(w, "entry fingerprint does not match URL, or result missing", http.StatusBadRequest)
		return
	}
	if err := s.st.Put(fp, e.Label, fromWire(e.Result)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxBodyBytes bounds uploads; the largest catalog campaigns serialise
// to tens of kilobytes, so 256 MiB is generous headroom, not a limit
// anyone should meet.
const maxBodyBytes = 256 << 20

// BearerAuth wraps a handler with shared-token authentication: every
// request must carry `Authorization: Bearer token` or is rejected with
// 401, except GET /v1/meta, which stays open as the unauthenticated
// liveness probe. An empty token returns next unchanged, so callers
// can wire the -auth-token flag through unconditionally. This is the
// auth half of running a coordinator on an untrusted network;
// pair it with TLS termination for the transport half.
func BearerAuth(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == metaPath {
			next.ServeHTTP(w, r)
			return
		}
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="eptest"`)
			http.Error(w, "missing or wrong bearer token (start the worker with the server's -auth-token)", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Client is the HTTP cache transport: a sched.Cache whose entries live
// in the store a remote `eptest -serve-coord` serves. Gets degrade to
// misses on any failure — network errors, version skew, a stopped
// server — because the caller's fallback (running the campaign) is
// always correct; Puts report errors, which the suite treats as
// best-effort (CacheErr).
type Client struct {
	base  string
	hc    *http.Client
	token string

	// puts / putFailures count entry uploads, so the suite can tell
	// the operator about a flaky server even though every
	// individual Put is best-effort.
	puts        atomic.Int64
	putFailures atomic.Int64
}

// DialOption configures Dial.
type DialOption func(*Client)

// WithToken makes the client send `Authorization: Bearer token` on
// every request, matching a server started with -auth-token.
func WithToken(token string) DialOption {
	return func(c *Client) { c.token = token }
}

// WithMetrics instruments the client's transport: every request to the
// server is recorded as eptest_http_client_* counters and
// latency samples in r, labelled by normalised route.
func WithMetrics(r *obs.Registry) DialOption {
	return func(c *Client) { c.hc.Transport = obs.RoundTripper(r, c.hc.Transport) }
}

// ValidateBaseURL normalises a server base URL for any of the repo's
// HTTP clients (the cache transport here, the coordinator client in
// internal/core/coord): absolute, http or https, a host, no query or
// fragment, trailing slash trimmed. what names the URL in errors
// ("cache URL", "coordinator URL").
func ValidateBaseURL(rawURL, what string) (string, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", fmt.Errorf("%s %q: %v", what, rawURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("%s %q must be absolute http(s)://host[:port]", what, rawURL)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("%s %q must not carry a query or fragment", what, rawURL)
	}
	return strings.TrimSuffix(u.String(), "/"), nil
}

// Dial validates a server URL and returns a client for it. The
// URL must be absolute with an http or https scheme and a host, e.g.
// "http://10.0.0.7:7077". No connection is attempted — a server that
// is down manifests as cache misses, not a dial error.
func Dial(rawURL string, opts ...DialOption) (*Client, error) {
	base, err := ValidateBaseURL(rawURL, "cache URL")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
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

// PutStats reports how many cache-entry uploads this client attempted
// and how many failed. Failures are already recorded per campaign as
// CacheErr; the aggregate lets the suite report a flaky or
// unauthorized server in one line.
func (c *Client) PutStats() (attempts, failures int64) {
	return c.puts.Load(), c.putFailures.Load()
}

// Base returns the server URL the client was dialled with.
func (c *Client) Base() string { return c.base }

// Get fetches the entry cached under the fingerprint. Every failure —
// transport, status, decode, or a validation the local store would
// also reject — is a miss.
func (c *Client) Get(fp string) (*inject.Result, bool) {
	req, err := http.NewRequest(http.MethodGet, c.base+campaignsPath+url.PathEscape(fp), nil)
	if err != nil {
		return nil, false
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, false
	}
	if !e.valid(fp) {
		return nil, false
	}
	return fromWire(e.Result), true
}

// Put uploads a freshly computed result under its fingerprint.
func (c *Client) Put(fp, label string, res *inject.Result) error {
	c.puts.Add(1)
	e := entry{
		Store:       FormatVersion,
		Engine:      inject.EngineVersion,
		Fingerprint: fp,
		Label:       label,
		Result:      toWire(res),
	}
	b, err := json.Marshal(&e)
	if err != nil {
		c.putFailures.Add(1)
		return fmt.Errorf("store: encode %s: %w", fp, err)
	}
	if err := c.put(campaignsPath+url.PathEscape(fp), b); err != nil {
		c.putFailures.Add(1)
		return err
	}
	return nil
}

// put issues one PUT and normalises non-2xx statuses into errors that
// carry the server's diagnostic.
func (c *Client) put(path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("store: PUT %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}
