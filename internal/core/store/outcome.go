package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core/inject"
	"repro/internal/core/jsonstr"
	"repro/internal/core/sched"
)

// Outcome is the completed-job record: a shard artifact's job without
// its index, and a coordinator completion's outcome (docs/STORE.md).
// Its members are written and read, in this order, by AppendOutcome and
// ReadOutcome, as json.Marshal writes them; Result is the canonical
// campaign encoding.
type Outcome struct {
	Name              string `json:"name"`
	Variant           string `json:"variant,omitempty"`
	Fingerprint       string `json:"fingerprint,omitempty"`
	SourceFingerprint string `json:"source_fingerprint,omitempty"`
	Cached            bool   `json:"cached,omitempty"`
	CachedSource      bool   `json:"cached_source,omitempty"`
	// Err is the campaign's planning error, if it failed.
	Err string `json:"err,omitempty"`
	// Result is the campaign result in canonical wire form; required
	// unless Err is set.
	Result json.RawMessage `json:"result,omitempty"`
}

// Label is the label of the record's job.
func (o *Outcome) Label() string {
	return sched.Job{Name: o.Name, Variant: o.Variant}.Label()
}

// recordOf returns c's record without its result bytes.
func recordOf(c *sched.CampaignResult) Outcome {
	o := Outcome{
		Name:              c.Job.Name,
		Variant:           c.Job.Variant,
		Fingerprint:       c.Fingerprint,
		SourceFingerprint: c.SourceFingerprint,
		Cached:            c.Cached,
		CachedSource:      c.CachedSource,
	}
	if c.Err != nil {
		o.Err = c.Err.Error()
	}
	return o
}

// OutcomeOf returns the record of cr with its result encoded, which a
// campaign with neither a result nor an error does not have.
func OutcomeOf(cr *sched.CampaignResult) (Outcome, error) {
	o := recordOf(cr)
	switch {
	case cr.Result != nil:
		o.Result = encode(func(dst []byte) []byte { return appendCampaign(dst, cr.Result) })
	case cr.Err == nil:
		return Outcome{}, fmt.Errorf("store: %s has neither a result nor an error", cr.Job.Label())
	}
	return o, nil
}

// CampaignResult converts the record back into the scheduler's
// in-memory form, its result decoded. With Err set, a result that does
// not decode is left out, as Check leaves it.
func (o *Outcome) CampaignResult() (sched.CampaignResult, error) {
	res, err := DecodeResult(o.Result)
	if err != nil && o.Err == "" {
		return sched.CampaignResult{}, err
	}
	return o.campaignResult(res), nil
}

// campaignResult is the record in the scheduler's form, with res, its
// result decoded.
func (o *Outcome) campaignResult(res *inject.Result) sched.CampaignResult {
	cr := sched.CampaignResult{
		Job:               sched.Job{Name: o.Name, Variant: o.Variant},
		Fingerprint:       o.Fingerprint,
		SourceFingerprint: o.SourceFingerprint,
		Cached:            o.Cached,
		CachedSource:      o.CachedSource,
		Result:            res,
	}
	if o.Err != "" {
		cr.Err = errors.New(o.Err)
	}
	return cr
}

// ErrUndecodable marks a record whose result is JSON but not the
// canonical campaign encoding. A coordinator keeps such a record: it
// counts no runs and adds no findings, and the drain fails on it.
var ErrUndecodable = errors.New("result undecodable")

// Check is the rule a record passes before a coordinator records it,
// live or from its journal, and returns the result decoded. It refuses
// a record without a job name, with neither a result nor an error, or
// with a result that is not JSON; a successful job's result that is
// JSON but not canonical is an error wrapping ErrUndecodable. With Err
// set, a result that does not decode is ignored.
func (o *Outcome) Check() (*inject.Result, error) {
	switch {
	case o.Name == "":
		return nil, errors.New("outcome has no job name")
	case len(o.Result) == 0 && o.Err == "":
		return nil, errors.New("outcome has neither a result nor an error")
	}
	res, err := DecodeResult(o.Result)
	switch {
	case err == nil || o.Err != "":
		return res, nil
	case !json.Valid(o.Result):
		return nil, errors.New("outcome result is not valid JSON")
	}
	return nil, fmt.Errorf("%w: %v", ErrUndecodable, err)
}

// AppendOutcome appends o's members, "name" through "result", without
// the braces around them: the record as json.Marshal writes it, minus
// its first and last byte. The result is res in the campaign encoding
// when res is non-nil, and otherwise o.Result copied in as it is, which
// is what Marshal does with compact JSON whose strings escape <, >, &,
// U+2028 and U+2029: it must be such bytes, or empty. OutcomeOf's are.
func AppendOutcome(dst []byte, o *Outcome, res *inject.Result) []byte {
	dst = append(dst, `"name":`...)
	dst = jsonstr.Append(dst, o.Name)
	for _, m := range [...]struct{ key, val string }{
		{`,"variant":`, o.Variant},
		{`,"fingerprint":`, o.Fingerprint},
		{`,"source_fingerprint":`, o.SourceFingerprint},
	} {
		if m.val != "" {
			dst = jsonstr.Append(append(dst, m.key...), m.val)
		}
	}
	if o.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if o.CachedSource {
		dst = append(dst, `,"cached_source":true`...)
	}
	if o.Err != "" {
		dst = jsonstr.Append(append(dst, `,"err":`...), o.Err)
	}
	switch {
	case res != nil:
		dst = appendCampaign(append(dst, `,"result":`...), res)
	case len(o.Result) > 0:
		dst = append(append(dst, `,"result":`...), o.Result...)
	}
	return dst
}

// ReadOutcome reads the members AppendOutcome writes, and nothing else,
// at d's cursor into o, o.Result a copy of exactly the result's bytes,
// and returns the result decoded (nil when there is none). On any other
// input d holds the error.
func ReadOutcome(d *jsonstr.Decoder, o *Outcome) *inject.Result {
	sd := decoder{Decoder: *d}
	res := sd.outcome(o, true)
	*d = sd.Decoder
	return res
}

// outcome reads the members AppendOutcome writes into o and returns the
// result decoded, or nil when the record holds none; after an error,
// which d holds, neither is complete. With keep, o.Result is set to a
// copy of the result's bytes.
func (d *decoder) outcome(o *Outcome, keep bool) *inject.Result {
	d.Expect(`"name":`)
	o.Name = d.str()
	o.Variant = d.OmitEmpty(`,"variant":`)
	o.Fingerprint = d.OmitEmpty(`,"fingerprint":`)
	o.SourceFingerprint = d.OmitEmpty(`,"source_fingerprint":`)
	o.Cached = d.Peek(`,"cached":true`)
	o.CachedSource = d.Peek(`,"cached_source":true`)
	o.Err = d.OmitEmpty(`,"err":`)
	if !d.Peek(`,"result":`) {
		return nil
	}
	start := d.Rest()
	res := d.campaign()
	if keep && d.Err() == nil {
		o.Result = make(json.RawMessage, len(start)-len(d.Rest()))
		copy(o.Result, start)
	}
	return res
}
