package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// The completion codec's reference is the encoding/json path it
// replaced: json.Marshal for the worker's request, and json.Unmarshal
// followed by the request's checks for the server's decode.

// referenceDecodeComplete is decodeComplete as it was on
// encoding/json.
func referenceDecodeComplete(b []byte) (*CompleteRequest, error) {
	var r CompleteRequest
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Proto != ProtocolVersion {
		return nil, fmt.Errorf("coord: request speaks %q, server speaks %q", r.Proto, ProtocolVersion)
	}
	if r.WorkerID == "" || len(r.WorkerID) > maxWorkerName {
		return nil, errors.New("coord: worker id missing or too long")
	}
	if r.Index < 0 || r.Index >= maxCatalogJobs {
		return nil, fmt.Errorf("coord: completion index %d out of range", r.Index)
	}
	if r.Outcome.Name == "" {
		return nil, errors.New("coord: completion outcome has no job name")
	}
	return &r, nil
}

// catalogOutcomes are the outcomes the lpr campaigns complete with,
// built as a worker builds them.
var catalogOutcomes = sync.OnceValue(func() []Outcome {
	sr := sched.RunSuite(sched.FilterJobs(apps.SuiteJobs(), "lpr*"), sched.SuiteOptions{Workers: 2})
	var outs []Outcome
	for _, cr := range sr.Campaigns {
		o, err := store.OutcomeOf(&cr)
		if err != nil {
			panic(err)
		}
		outs = append(outs, o)
	}
	return outs
})

// edgeRequests are completions whose strings, flags and index exercise
// every branch of the codec, each with and without a canonical result.
func edgeRequests(t testing.TB) []CompleteRequest {
	t.Helper()
	res, err := store.EncodeResult(&inject.Result{Campaign: "c<&> ", TotalSites: []string{"\xff"}})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []CompleteRequest
	for _, o := range []Outcome{
		{Name: "lpr", Variant: "vulnerable"},
		{Name: "a<b>&c", Variant: "  ", Err: "boom \xff\xfe \"quoted\" \\ \n\t\x00\x7f"},
		{Name: "n", Fingerprint: "f", SourceFingerprint: "s", Cached: true, CachedSource: true, Err: "e"},
		{Name: "ü日本", Cached: true},
		{Name: "x", CachedSource: true},
		{Name: "", Variant: ""},
		{Name: "n", Err: "", Result: json.RawMessage{}},
	} {
		for _, withResult := range []bool{false, true} {
			if withResult {
				o.Result = res
			}
			for _, idx := range []int{0, 7, -1, maxCatalogJobs, 123456789} {
				for _, w := range []string{"w1", "", "w\xff"} {
					reqs = append(reqs, CompleteRequest{Proto: ProtocolVersion, WorkerID: w, Index: idx, Outcome: o})
				}
			}
		}
	}
	reqs = append(reqs, CompleteRequest{Proto: "eptest-coord/1", WorkerID: "w1", Outcome: Outcome{Name: "n", Result: res}})
	for _, o := range catalogOutcomes() {
		reqs = append(reqs, CompleteRequest{Proto: ProtocolVersion, WorkerID: "w12", Index: 3, Outcome: o})
	}
	return reqs
}

// checkEncode holds appendComplete to json.Marshal for one request.
func checkEncode(t *testing.T, r *CompleteRequest) []byte {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendComplete(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("appendComplete diverges from json.Marshal:\n got %q\nwant %q", got, want)
	}
	return want
}

// checkDecode holds decodeComplete to the reference on b. Whatever it
// accepts, the reference accepts too and decodes to the same request,
// and the result it decoded on the way in is the request's result.
// Whatever the reference accepts and appendComplete writes back as b,
// with a result store.DecodeResult reads or none, is canonical, and
// it accepts.
func checkDecode(t *testing.T, b []byte) (*CompleteRequest, *inject.Result) {
	t.Helper()
	want, werr := referenceDecodeComplete(b)
	got, res, err := decodeComplete(b)
	if err != nil {
		if werr == nil && bytes.Equal(appendComplete(nil, want), b) {
			if _, rerr := store.DecodeResult(want.Outcome.Result); len(want.Outcome.Result) == 0 || rerr == nil {
				t.Fatalf("decodeComplete(%q) rejects a canonical body: %v", b, err)
			}
		}
		return nil, nil
	}
	if werr != nil {
		t.Fatalf("decodeComplete(%q) accepts what the reference rejects: %v", b, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeComplete(%q) = %+v, reference %+v", b, got, want)
	}
	if len(got.Outcome.Result) > 0 {
		ref, err := store.DecodeResult(got.Outcome.Result)
		if err != nil || !reflect.DeepEqual(res, ref) {
			t.Fatalf("decodeComplete(%q) decoded a result DecodeResult does not (%v)", b, err)
		}
	} else if res != nil {
		t.Fatalf("decodeComplete(%q) decoded a result the body does not hold", b)
	}
	return got, res
}

// TestCompleteCodecMatchesReference runs every edge request and every
// lpr completion through both codecs and their references, and pins
// that a worker's completion is read: its result is decoded once on
// the way in, and kept as a copy of exactly its size.
func TestCompleteCodecMatchesReference(t *testing.T) {
	t.Parallel()
	for _, r := range edgeRequests(t) {
		b := checkEncode(t, &r)
		checkDecode(t, b)
	}
	for _, o := range catalogOutcomes() {
		r := CompleteRequest{Proto: ProtocolVersion, WorkerID: "w3", Index: 0, Outcome: o}
		b := appendComplete(nil, &r)
		got, res := checkDecode(t, b)
		if res == nil {
			t.Fatalf("%s/%s: a worker's completion was not decoded", o.Name, o.Variant)
		}
		if cap(got.Outcome.Result) != len(got.Outcome.Result) {
			t.Errorf("%s/%s: result kept in a %d-byte buffer for %d bytes", o.Name, o.Variant, cap(got.Outcome.Result), len(got.Outcome.Result))
		}
		for i := range b {
			b[i] = 0
		}
		if !bytes.Equal(got.Outcome.Result, o.Result) {
			t.Fatalf("%s/%s: the decoded request aliases the body", o.Name, o.Variant)
		}
	}
}

// TestDecodeCompleteRejectsNonCanonical pins that the completion
// endpoint reads exactly appendComplete's form: each body below is one
// json.Unmarshal reads but appendComplete never writes, and
// decodeComplete rejects it, and the live endpoint answers it with 400.
// The canonical body they are variations of passes the decoder and is
// turned down by the queue instead (409: the worker is unknown).
func TestDecodeCompleteRejectsNonCanonical(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(NewServer(New([]string{"a"}, Options{})))
	defer srv.Close()
	post := func(b string) int {
		resp, err := http.Post(srv.URL+completePath, "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		store.CloseBody(resp.Body)
		return resp.StatusCode
	}
	canonical := `{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","err":"x"}}`
	checkDecode(t, []byte(canonical))
	if code := post(canonical); code != http.StatusConflict {
		t.Fatalf("canonical body: status %d, want %d", code, http.StatusConflict)
	}

	res := string(catalogOutcomes()[0].Result)
	for _, b := range []string{
		` {"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","err":"x"}} `,
		`{"worker_id":"w1","proto":"eptest-coord/3","index":0,"outcome":{"name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","err":"x"},"extra":1}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":00,"outcome":{"name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":-0,"outcome":{"name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":1e0,"outcome":{"name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":1.0,"outcome":{"name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":99999999999999999999,"outcome":{"name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","cached":false,"err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","variant":"v","variant":"w","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":null}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":{"campaign":"x"}}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result": ` + res + `}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":` + res + ` }}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":` + res + `}}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":` + res + `,"err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":` + res[:len(res)-1] + `}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a<","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a` + "\u2028" + `","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a\u0020","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a` + "\xff" + `","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a\ufffd","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a` + "\x01" + `","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","err":"x"}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"Name":"a","err":"x"}}`,
		`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","variant":"","err":"x"}}`,
	} {
		if _, _, err := decodeComplete([]byte(b)); err == nil {
			t.Errorf("decodeComplete accepted %q", b)
		}
		checkDecode(t, []byte(b))
		if code := post(b); code != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want %d", b, code, http.StatusBadRequest)
		}
	}
}

// FuzzEncodeComplete holds appendComplete to json.Marshal on fuzzed
// strings, flags and indices, with and without a canonical result.
func FuzzEncodeComplete(f *testing.F) {
	f.Add("w1", 0, "lpr", "vulnerable", "", "", "", false, false, true)
	f.Add("w\xff", -3, "a<b>&", " ", "0123", "abcd", "boom \"x\" \\", true, true, false)
	f.Add("", 1<<20, "", "", "\x00", "\x7f", "�", false, true, true)
	f.Fuzz(func(t *testing.T, worker string, idx int, name, variant, fp, srcFP, errMsg string, cached, cachedSource, withResult bool) {
		o := Outcome{Name: name, Variant: variant, Fingerprint: fp, SourceFingerprint: srcFP, Cached: cached, CachedSource: cachedSource, Err: errMsg}
		if withResult {
			o.Result, _ = store.EncodeResult(&inject.Result{Campaign: name, TotalSites: []string{variant, errMsg}})
		}
		r := CompleteRequest{Proto: ProtocolVersion, WorkerID: worker, Index: idx, Outcome: o}
		checkDecode(t, checkEncode(t, &r))
	})
}

// FuzzDecodeComplete holds decodeComplete to the reference on
// arbitrary bytes: whatever it accepts, the reference accepts and
// decodes to the same request, and whatever the reference accepts in
// canonical form, it accepts. An accepted request re-encodes to bytes
// it accepts again (round-trip closure, as FuzzCoordWire checks for
// the other requests).
func FuzzDecodeComplete(f *testing.F) {
	for _, r := range edgeRequests(f) {
		b, err := json.Marshal(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"proto":"eptest-coord/3","worker_id":"w1","index":0,"outcome":{"name":"a","result":null}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, _ := checkDecode(t, b); r != nil {
			if again, _ := checkDecode(t, checkEncode(t, r)); again == nil {
				t.Fatalf("re-encoded complete rejected: %q", b)
			}
		}
	})
}
