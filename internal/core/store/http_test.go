package store_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core/inject"
	"repro/internal/core/store"
)

// dialTestServer starts a store server over a fresh store and returns
// a client dialled at it plus the backing store.
func dialTestServer(t *testing.T) (*store.Client, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.NewServer(st))
	t.Cleanup(srv.Close)
	cl, err := store.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return cl, st
}

// TestDialValidation pins the URL errors the store client reports for
// a malformed server URL.
func TestDialValidation(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{
		"", "10.0.0.7:7077", "ftp://host/", "http://", "://x",
		"http://host/?q=1", "http://host/#frag",
	} {
		if _, err := store.Dial(bad); err == nil {
			t.Errorf("Dial(%q) succeeded, want error", bad)
		}
	}
	if base, err := store.ValidateBaseURL("http://127.0.0.1:7077/", "cache URL"); err != nil || base != "http://127.0.0.1:7077" {
		t.Errorf("ValidateBaseURL = (%q, %v), want the trailing slash trimmed", base, err)
	}
}

// TestClientRoundTrip pushes a real campaign result through the HTTP
// transport and back: the replay must match field for field, and the
// remote store must be indistinguishable from a locally written one.
func TestClientRoundTrip(t *testing.T) {
	t.Parallel()
	cl, st := dialTestServer(t)
	res, fp := runLpr(t)

	if _, ok := cl.Get(fp); ok {
		t.Fatal("Get on an empty store hit")
	}
	if err := cl.Put(fp, "lpr/vulnerable", res); err != nil {
		t.Fatal(err)
	}

	got, ok := cl.Get(fp)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !reflect.DeepEqual(got.Injections, res.Injections) {
		t.Error("injections diverge through the HTTP transport")
	}
	if got.Metric() != res.Metric() {
		t.Errorf("metric diverges: %+v != %+v", got.Metric(), res.Metric())
	}
	wantB, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := store.EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantB) != string(gotB) {
		t.Error("canonical encoding not byte-identical through the transport")
	}

	// The server's backing store holds the entry like a local write.
	local, ok := st.Get(fp)
	if !ok {
		t.Fatal("server's local store misses the uploaded entry")
	}
	if !reflect.DeepEqual(local.Injections, res.Injections) {
		t.Error("server-side entry diverges from the upload")
	}
}

// TestClientDegradesToMisses pins the failure semantics: with the
// server gone, Get is a miss and Put is an error — never a hang or a
// panic, so a dead cache only costs re-execution.
func TestClientDegradesToMisses(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.NewServer(st))
	cl, err := store.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	res, fp := runLpr(t)
	if _, ok := cl.Get(fp); ok {
		t.Error("Get against a dead server hit")
	}
	if err := cl.Put(fp, "lpr/vulnerable", res); err == nil {
		t.Error("Put against a dead server succeeded")
	}
}

// TestServerRejectsMismatchedUploads pins the poisoning guards and
// their statuses: an entry from another format or engine version is a
// 409; a body whose fingerprint disagrees with the URL, garbage JSON, a
// bare result without its entry envelope, an entry without a result,
// and an entry that is not in the canonical encoding are 400s. None of
// them touches the store, and the canonical entry is then accepted.
func TestServerRejectsMismatchedUploads(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.NewServer(st))
	t.Cleanup(srv.Close)
	cl, err := store.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, fp := runLpr(t)
	if err := cl.Put(fp, "lpr/vulnerable", res); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put("not-a-fingerprint", "lpr/vulnerable", res); err == nil {
		t.Error("Put under a malformed fingerprint succeeded")
	}
	good, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	// Every upload goes to a second address; entry is the stored entry
	// re-addressed to it, which the server accepts as it is.
	other := strings.Repeat("0", 64)
	stored := mustEntryJSON(t, st, fp)
	entry := strings.Replace(stored, fp, other, 1)
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(entry), "", "  "); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"fp mismatch":    {stored, http.StatusBadRequest},
		"garbage":        {"{not json", http.StatusBadRequest},
		"bare result":    {string(good), http.StatusBadRequest},
		"no result":      {entry[:strings.Index(entry, `"result":`)] + `"result":null}`, http.StatusBadRequest},
		"re-indented":    {indented.String(), http.StatusBadRequest},
		"foreign format": {strings.Replace(entry, store.FormatVersion, "eptest-store/0", 1), http.StatusConflict},
		"foreign engine": {strings.Replace(entry, inject.EngineVersion, "eptest-engine/0", 1), http.StatusConflict},
	} {
		if got := putStatus(t, srv.URL+"/v1/campaigns/"+other, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", name, got, tc.want)
		}
	}
	if _, ok := st.Get(other); ok {
		t.Error("a rejected upload reached the store")
	}
	if got := putStatus(t, srv.URL+"/v1/campaigns/"+other, entry); got != http.StatusNoContent {
		t.Fatalf("canonical entry: status %d, want 204", got)
	}
	if got := mustEntryJSON(t, st, other); got != entry {
		t.Error("the accepted entry was not stored as uploaded")
	}
}

// putStatus uploads body to url and returns the response status.
func putStatus(t *testing.T, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServerRejectsPathTraversal pins the fingerprint gate: ServeMux
// decodes %2F after routing, so "../" can reach PathValue — the
// handlers must reject anything that is not 64 hex chars before it
// touches a filesystem path, on both the read and the write side.
func TestServerRejectsPathTraversal(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	secret := filepath.Join(dir, "secret.json")
	if err := os.WriteFile(secret, []byte(`{"top":"secret"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.NewServer(st))
	t.Cleanup(srv.Close)

	// Reads must not escape the store directory.
	for _, fp := range []string{
		"..%2F..%2Fsecret",
		"..%2F..%2F..%2Fsecret",
		strings.Repeat("A", 64), // right length, wrong alphabet
		"abc",                   // wrong length
	} {
		resp, err := http.Get(srv.URL + "/v1/campaigns/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s = 200, want rejection", fp)
		}
	}

	// Writes must not land outside the store directory either.
	res, fp := runLpr(t)
	cl, err := store.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(fp, "lpr/vulnerable", res); err != nil {
		t.Fatal(err)
	}
	body := mustEntryJSON(t, st, fp)
	evil := strings.NewReplacer(fp, "../../../planted").Replace(body)
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/campaigns/..%2F..%2F..%2Fplanted", strings.NewReader(evil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Fatalf("traversal PUT accepted with %s", resp.Status)
	}
	if _, err := os.Stat(filepath.Join(dir, "planted.json")); err == nil {
		t.Error("traversal PUT planted a file outside the store")
	}
}

// mustEntryJSON reads back the raw stored entry for fp, to replay it
// under a different URL.
func mustEntryJSON(t *testing.T, st *store.Store, fp string) string {
	t.Helper()
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBearerAuth pins the shared-token transport guard: without the
// right token every mutating or reading endpoint is 401 (and the
// client degrades to misses / loud put errors), with it everything
// works, and GET /v1/meta stays open as the liveness probe.
func TestBearerAuth(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.BearerAuth("s3cret", store.NewServer(st)))
	t.Cleanup(srv.Close)

	res, err := inject.Run(mustLookup(t, "lpr-create-site").Vulnerable())
	if err != nil {
		t.Fatal(err)
	}
	fp := strings.Repeat("ab", 32)

	// The liveness probe needs no token.
	resp, err := http.Get(srv.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/meta = %s, want open access", resp.Status)
	}

	// Wrong or missing token: puts fail loudly, gets degrade to misses.
	for name, cl := range map[string]*store.Client{
		"no token":    mustDial(t, srv.URL),
		"wrong token": mustDial(t, srv.URL, store.WithToken("guess")),
	} {
		if err := cl.Put(fp, "lpr-create-site", res); err == nil {
			t.Errorf("%s: Put succeeded against an authed server", name)
		} else if !strings.Contains(err.Error(), "401") {
			t.Errorf("%s: Put error %v does not carry the 401", name, err)
		}
		if _, ok := cl.Get(fp); ok {
			t.Errorf("%s: Get hit against an authed server", name)
		}
	}

	// The right token round-trips.
	cl := mustDial(t, srv.URL, store.WithToken("s3cret"))
	if err := cl.Put(fp, "lpr-create-site", res); err != nil {
		t.Fatalf("authed Put: %v", err)
	}
	if _, ok := cl.Get(fp); !ok {
		t.Fatal("authed Get missed the entry just uploaded")
	}

	// An empty token leaves the server open.
	open := httptest.NewServer(store.BearerAuth("", store.NewServer(st)))
	t.Cleanup(open.Close)
	if _, ok := mustDial(t, open.URL).Get(fp); !ok {
		t.Fatal("empty token should disable auth entirely")
	}
}

// mustDial dials or fails the test.
func mustDial(t *testing.T, url string, opts ...store.DialOption) *store.Client {
	t.Helper()
	cl, err := store.Dial(url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// mustLookup resolves a catalog spec or fails the test.
func mustLookup(t *testing.T, name string) apps.Spec {
	t.Helper()
	spec, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
