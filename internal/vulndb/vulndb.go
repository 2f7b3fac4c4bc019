// Package vulndb reproduces the Section 2.4 data analysis: a 195-entry
// vulnerability database in the style of the CERIAS collection, an
// EAI-model classifier over it, and builders for the paper's Tables 1-4.
//
// The CERIAS database is proprietary; the entries here are synthetic,
// modeled on well-known historical vulnerabilities of the same era and
// constructed so the category marginals match the counts the paper
// publishes (which is all Tables 1-4 report). Every entry carries
// structured exploit facts — the input channel abused, the environment
// entity and attribute perturbed — and the classifier derives the taxonomy
// from those facts by rule, exactly as the paper's authors classified
// their records.
package vulndb

import (
	"fmt"

	"repro/internal/core/eai"
)

// Disposition is the first-stage triage of Section 2.4: 26 entries lacked
// information, 22 were design errors, and 5 configuration errors — all
// excluded before EAI classification.
type Disposition int

// Dispositions.
const (
	Classifiable Disposition = iota + 1
	InsufficientInfo
	DesignError
	ConfigError
)

// String returns the disposition name.
func (d Disposition) String() string {
	switch d {
	case Classifiable:
		return "classifiable"
	case InsufficientInfo:
		return "insufficient-information"
	case DesignError:
		return "design-error"
	case ConfigError:
		return "configuration-error"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// Channel is the input channel an exploit abuses (for indirect faults).
type Channel int

// Channels, mapping one-to-one onto the Table 2 origins.
const (
	ChanNone Channel = iota
	ChanArgv
	ChanStdin
	ChanEnvVar
	ChanFileContent
	ChanNetworkPacket
	ChanIPC
)

// Exploit is the structured record of how an attacker triggers the flaw.
type Exploit struct {
	// Input is the channel crafted input arrives on; ChanNone when the
	// attack involves no crafted input value.
	Input Channel
	// Entity is the environment entity the attacker perturbs in place;
	// zero when the attack works purely through an input value.
	Entity eai.Entity
	// Attr is the perturbed attribute (for file-system entities this is
	// the Table 4 column).
	Attr eai.Attr
	// CodeDefect is the underlying programming error, free text.
	CodeDefect string
}

// Entry is one vulnerability record.
type Entry struct {
	ID          string
	Title       string
	Program     string
	OS          string
	Year        int
	Disposition Disposition
	Exploit     Exploit
}

// Category is the classifier verdict for one entry.
type Category struct {
	// Excluded is non-zero for entries triaged out before classification.
	Excluded Disposition
	// Class is indirect/direct for EAI-classified entries; zero for the
	// "others" bucket (environment-independent software faults).
	Class eai.Class
	// Origin is set for indirect entries (Table 2 row).
	Origin eai.Origin
	// Entity is set for direct entries (Table 3 row).
	Entity eai.Entity
	// Attr is set for direct file-system entries (Table 4 column).
	Attr eai.Attr
}

// Others reports whether the entry was classifiable but environment-
// independent (the 13-entry bucket of Table 1).
func (c Category) Others() bool {
	return c.Excluded == 0 && c.Class == 0
}

// Classify applies the EAI rules to one entry:
//
//  1. non-classifiable dispositions are excluded (Section 2.4 triage);
//  2. a crafted-input channel makes the fault indirect, with the origin
//     given by the channel (Figure 1a: the fault propagates via the
//     internal entity the input initialises);
//  3. otherwise a perturbed environment entity makes the fault direct
//     (Figure 1b);
//  4. otherwise the flaw is environment-independent ("others").
func Classify(e Entry) Category {
	if e.Disposition != Classifiable {
		return Category{Excluded: e.Disposition}
	}
	if e.Exploit.Input != ChanNone {
		return Category{Class: eai.ClassIndirect, Origin: originOf(e.Exploit.Input)}
	}
	if e.Exploit.Entity != 0 {
		return Category{Class: eai.ClassDirect, Entity: e.Exploit.Entity, Attr: e.Exploit.Attr}
	}
	return Category{}
}

func originOf(ch Channel) eai.Origin {
	switch ch {
	case ChanArgv, ChanStdin:
		return eai.OriginUserInput
	case ChanEnvVar:
		return eai.OriginEnvVar
	case ChanFileContent:
		return eai.OriginFileInput
	case ChanNetworkPacket:
		return eai.OriginNetworkInput
	case ChanIPC:
		return eai.OriginProcessInput
	default:
		return 0
	}
}

// DB is the loaded database.
type DB struct {
	Entries []Entry
}

// Load returns the full 195-entry database.
func Load() *DB {
	return &DB{Entries: allEntries()}
}

// Stats is the aggregate classification used by Tables 1-4.
type Stats struct {
	Total            int
	InsufficientInfo int
	DesignErrors     int
	ConfigErrors     int

	Classified int // entries reaching EAI classification
	Indirect   int
	Direct     int
	Others     int

	IndirectByOrigin map[eai.Origin]int
	DirectByEntity   map[eai.Entity]int
	FSByAttr         map[eai.Attr]int
}

// Classify classifies every entry and aggregates.
func (db *DB) Classify() Stats {
	s := Stats{
		IndirectByOrigin: make(map[eai.Origin]int),
		DirectByEntity:   make(map[eai.Entity]int),
		FSByAttr:         make(map[eai.Attr]int),
	}
	for _, e := range db.Entries {
		s.Total++
		c := Classify(e)
		switch c.Excluded {
		case InsufficientInfo:
			s.InsufficientInfo++
			continue
		case DesignError:
			s.DesignErrors++
			continue
		case ConfigError:
			s.ConfigErrors++
			continue
		}
		s.Classified++
		switch {
		case c.Class == eai.ClassIndirect:
			s.Indirect++
			s.IndirectByOrigin[c.Origin]++
		case c.Class == eai.ClassDirect:
			s.Direct++
			s.DirectByEntity[c.Entity]++
			if c.Entity == eai.EntityFileSystem {
				s.FSByAttr[c.Attr]++
			}
		default:
			s.Others++
		}
	}
	return s
}
