package sched

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/interpose"
)

// Signature identifies a class of equivalent violations: the policy
// rule that fired, the fault dimension that triggered it (attribute for
// direct faults, input semantic for indirect ones), and the kind of
// environment object perturbed. Suite runs over a whole catalog surface
// the same weakness through many (campaign, point) pairs; clustering by
// signature deduplicates them into findings.
type Signature struct {
	// Rule is the violated policy rule.
	Rule policy.Kind
	// Class is the fault class (direct or indirect).
	Class eai.Class
	// Attr is the perturbed attribute, for direct faults.
	Attr eai.Attr
	// Sem is the perturbed input semantic, for indirect faults.
	Sem eai.Semantic
	// Kind is the environment-object kind at the interaction point.
	Kind interpose.ObjectKind
}

// String renders the signature as a stable, human-readable key.
func (s Signature) String() string {
	dim := s.Attr.String()
	if s.Class == eai.ClassIndirect {
		dim = s.Sem.String()
	}
	return s.Rule.String() + "/" + s.Class.String() + "/" + dim + " on " + s.Kind.String()
}

// Identity returns s without the dimension String does not render: the
// input semantic of a direct fault, the attribute of an indirect one.
// Signatures that render alike have equal identities.
func (s Signature) Identity() Signature {
	if s.Class == eai.ClassIndirect {
		s.Attr = 0
	} else {
		s.Sem = 0
	}
	return s
}

// EachViolation calls fn for every policy violation in res, in plan
// order, with its signature and the injection that triggered it. It
// walks res.Injections in place, so the pointers are valid only for
// the call. It is the one walk behind clustering, the findings fold
// and the coordinator's findings extract.
func EachViolation(res *inject.Result, fn func(sig Signature, in *inject.Injection, v *policy.Violation)) {
	for i := range res.Injections {
		in := &res.Injections[i]
		for j := range in.Violations {
			v := &in.Violations[j]
			fn(Signature{Rule: v.Kind, Class: in.Class, Attr: in.Attr, Sem: in.Sem, Kind: in.Kind}, in, v)
		}
	}
}

// Finding is one concrete violation inside a cluster.
type Finding struct {
	// Campaign and Variant locate the job that produced the finding.
	Campaign string
	Variant  string
	// Point is the interaction point whose perturbation violated.
	Point string
	// FaultID is the catalog fault injected.
	FaultID string
	// Object is the environment object the violation names.
	Object string
	// Detail is the oracle's explanation.
	Detail string
}

// Label renders the finding's job label, matching Job.Label.
func (f Finding) Label() string {
	if f.Variant == "" {
		return f.Campaign
	}
	return f.Campaign + "/" + f.Variant
}

// Cluster groups every finding that shares a signature.
type Cluster struct {
	Sig      Signature
	Findings []Finding
}

// Campaigns returns the distinct campaign labels represented in the
// cluster, in first-seen order.
func (c Cluster) Campaigns() []string {
	var out []string
	for i, f := range c.Findings {
		if i > 0 && f.Campaign == c.Findings[i-1].Campaign && f.Variant == c.Findings[i-1].Variant {
			continue
		}
		if label := f.Label(); !slices.Contains(out, label) {
			out = append(out, label)
		}
	}
	return out
}

// ClusterSuite clusters every violation across the suite's completed
// campaigns. Clusters are ordered by descending size, then by
// signature, so the dominant weakness classes lead the report.
func ClusterSuite(sr *SuiteResult) []Cluster {
	bysig := map[Signature]int{}
	var out []Cluster
	for _, c := range sr.Campaigns {
		if c.Err != nil || c.Result == nil {
			continue
		}
		EachViolation(c.Result, func(sig Signature, in *inject.Injection, v *policy.Violation) {
			i, ok := bysig[sig]
			if !ok {
				i = len(out)
				bysig[sig] = i
				out = append(out, Cluster{Sig: sig})
			}
			out[i].Findings = append(out[i].Findings, Finding{
				Campaign: c.Job.Name,
				Variant:  c.Job.Variant,
				Point:    in.Point,
				FaultID:  in.FaultID,
				Object:   v.Object,
				Detail:   v.Detail,
			})
		})
	}
	// Each signature is rendered once, not in every comparison.
	type keyed struct {
		key string
		cl  Cluster
	}
	ks := make([]keyed, len(out))
	for i, cl := range out {
		ks[i] = keyed{cl.Sig.String(), cl}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(len(b.cl.Findings), len(a.cl.Findings)); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	for i := range ks {
		out[i] = ks[i].cl
	}
	return out
}
