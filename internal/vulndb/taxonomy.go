// Taxonomy rendering and the measured-finding bridge: the same Category
// vocabulary the Section 2.4 classifier assigns database entries,
// reused to label violations the injection engine actually observed, so
// historical records and fresh findings share one taxonomy.

package vulndb

import (
	"repro/internal/core/eai"
	"repro/internal/interpose"
)

// Verdict renders the classification the way `vulnclass -entries`
// prints it: "excluded: <why>", "others (environment-independent)",
// "indirect via <origin>", or "direct on <entity>/<attr>".
func (c Category) Verdict() string {
	switch {
	case c.Excluded != 0:
		return "excluded: " + c.Excluded.String()
	case c.Others():
		return "others (environment-independent)"
	case c.Origin != 0:
		return "indirect via " + c.Origin.String()
	default:
		return "direct on " + c.Entity.String() + "/" + c.Attr.String()
	}
}

// Slug renders the category as a compact slash-joined token
// ("indirect/user-input", "direct/file-system/symbolic-link") for
// metric labels and machine-readable finding records. Excluded and
// "others" entries — which never arise from measured findings — render
// as "excluded" and "others".
func (c Category) Slug() string {
	switch {
	case c.Excluded != 0:
		return "excluded"
	case c.Others():
		return "others"
	case c.Origin != 0:
		return "indirect/" + c.Origin.String()
	case c.Attr != 0:
		return "direct/" + c.Entity.String() + "/" + c.Attr.String()
	default:
		return "direct/" + c.Entity.String()
	}
}

// CategoryOfFinding maps a measured violation's EAI facts — the fault
// class, the interposed object kind it perturbed, and (for direct
// faults) the attribute — onto the database taxonomy. Indirect faults
// classify by the Table 2 origin of the input channel the object kind
// feeds; direct faults by the Table 3 entity and Table 4/6 attribute.
func CategoryOfFinding(class eai.Class, kind interpose.ObjectKind, attr eai.Attr) Category {
	if class == eai.ClassIndirect {
		return Category{Class: eai.ClassIndirect, Origin: originForKind(kind)}
	}
	return Category{Class: eai.ClassDirect, Entity: eai.EntityForKind(kind), Attr: attr}
}

// originForKind maps an object kind to the Table 2 input channel a
// perturbed value of this kind arrives on.
func originForKind(k interpose.ObjectKind) eai.Origin {
	switch k {
	case interpose.KindArg:
		return eai.OriginUserInput
	case interpose.KindEnvVar:
		return eai.OriginEnvVar
	case interpose.KindFile, interpose.KindDir:
		return eai.OriginFileInput
	case interpose.KindNetwork:
		return eai.OriginNetworkInput
	case interpose.KindProcess:
		return eai.OriginProcessInput
	case interpose.KindRegistry:
		// Registry values are configuration input; the closest Table 2
		// channel is the file system (NT stores per-machine configuration
		// there).
		return eai.OriginFileInput
	default:
		return 0
	}
}
