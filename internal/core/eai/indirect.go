package eai

import (
	"bytes"
	"strings"
)

// IndirectFault is one Table 5 perturbation: a named mutation of the value
// an application receives from its environment. The engine applies Mutate
// in a post-hook, after the interaction point (Section 3.3 step 6: "inject
// each fault after the interaction point ... since we want to change the
// value the internal entity receives from the input").
type IndirectFault struct {
	// ID is the stable identity "indirect/<semantic>/<name>".
	ID string
	// Name is the short perturbation name from Table 5.
	Name string
	// Sem is the input semantic this fault applies to.
	Sem Semantic
	// Desc explains the perturbation in the words of Table 5.
	Desc string
	// Mutate rewrites the received value.
	Mutate func(value []byte) []byte
}

// Class returns ClassIndirect; IndirectFault satisfies the common fault
// interface used by reports.
func (f IndirectFault) Class() Class { return ClassIndirect }

// overlongPayload is the length-perturbation suffix: long enough to
// overflow any plausibly-sized fixed buffer, mirroring the "change length"
// rows of Table 5.
const overlongLen = 4096

func mkOverlong(value []byte) []byte {
	out := bytes.TrimRight(value, "\n")
	pad := make([]byte, overlongLen)
	for i := range pad {
		pad[i] = 'A'
	}
	return append(out, pad...)
}

func mkRelative(value []byte) []byte {
	s := string(value)
	if strings.HasPrefix(s, "/") {
		return []byte(strings.TrimLeft(s, "/"))
	}
	return []byte("./" + s)
}

func mkAbsolute(value []byte) []byte {
	s := string(value)
	if strings.HasPrefix(s, "/") {
		return value
	}
	return append([]byte("/"), value...)
}

func mkPrefix(prefix string) func([]byte) []byte {
	return func(value []byte) []byte {
		return append([]byte(prefix), value...)
	}
}

func mkAppend(suffix string) func([]byte) []byte {
	return func(value []byte) []byte {
		out := bytes.TrimRight(value, "\n")
		return append(out, suffix...)
	}
}

// mkBadFormat scrambles the value into something structurally invalid:
// control bytes around the original payload.
func mkBadFormat(value []byte) []byte {
	out := []byte{0x01, 0xff, '%', 'n'}
	out = append(out, value...)
	return append(out, 0x00, 0xfe)
}

// mkReorderPaths reverses the elements of a colon-separated path list —
// "rearrange order of path" in Table 5.
func mkReorderPaths(value []byte) []byte {
	parts := strings.Split(string(value), ":")
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return []byte(strings.Join(parts, ":"))
}

// indirectCatalogs holds each semantic's Table 5 perturbations, indexed
// by Semantic. They are built once: planning asks for a catalog at every
// input point of every campaign.
var indirectCatalogs = func() (t [SemRaw + 1][]IndirectFault) {
	for _, sem := range AllSemantics() {
		t[sem] = indirectFaults(sem)
	}
	return t
}()

// CatalogIndirect returns the Table 5 perturbations for a semantic input
// kind, in catalog order. The returned slice is shared; callers must not
// modify it.
func CatalogIndirect(sem Semantic) []IndirectFault {
	if sem < 0 || int(sem) >= len(indirectCatalogs) {
		return nil
	}
	return indirectCatalogs[sem]
}

// indirectFaults builds one semantic's Table 5 catalog.
func indirectFaults(sem Semantic) []IndirectFault {
	mk := func(name, desc string, m func([]byte) []byte) IndirectFault {
		return IndirectFault{
			ID:     "indirect/" + sem.String() + "/" + name,
			Name:   name,
			Sem:    sem,
			Desc:   desc,
			Mutate: m,
		}
	}
	switch sem {
	case SemFileName:
		return []IndirectFault{
			mk("change-length", "lengthen the name past any fixed buffer", mkOverlong),
			mk("use-relative-path", "make the name relative", mkRelative),
			mk("use-absolute-path", "make the name absolute", mkAbsolute),
			mk("insert-dotdot", `prefix the name with ".."`, mkPrefix("../")),
			mk("insert-slash", `insert "/" into the name`, mkPrefix("/")),
		}
	case SemCommand:
		return []IndirectFault{
			mk("change-length", "lengthen the command", mkOverlong),
			mk("use-relative-path", "make the command path relative", mkRelative),
			mk("use-absolute-path", "make the command path absolute", mkAbsolute),
			mk("insert-semicolon", `append "; sh" to the command`, mkAppend("; sh")),
			mk("insert-pipe", `append "| sh" to the command`, mkAppend("| sh")),
			mk("insert-ampersand", `append "& sh" to the command`, mkAppend("& sh")),
			mk("insert-newline", "append a newline and a second command", mkAppend("\nsh")),
		}
	case SemPathList:
		return []IndirectFault{
			mk("change-length", "lengthen the list", mkOverlong),
			mk("rearrange-order", "reverse the order of the paths", mkReorderPaths),
			mk("insert-untrusted-path", "prepend an attacker-writable directory", mkPrefix("/tmp/attacker/bin:")),
			mk("use-incorrect-path", "replace with a wrong but well-formed list", func([]byte) []byte {
				return []byte("/nonexistent:/also/nonexistent")
			}),
			mk("use-recursive-path", "make the list refer to itself", func([]byte) []byte {
				return []byte("$PATH:$PATH")
			}),
		}
	case SemPermMask:
		return []IndirectFault{
			mk("zero-mask", "change the mask to 0 so no permission bit is masked", func([]byte) []byte {
				return []byte("0")
			}),
		}
	case SemFileExtension:
		return []IndirectFault{
			mk("change-extension", `swap the extension for ".exe"`, func(v []byte) []byte {
				s := string(v)
				if i := strings.LastIndex(s, "."); i >= 0 {
					s = s[:i]
				}
				return []byte(s + ".exe")
			}),
			mk("change-extension-length", "lengthen the extension", mkAppend("."+strings.Repeat("x", 512))),
		}
	case SemIPAddress:
		return []IndirectFault{
			mk("change-length", "lengthen the address", mkOverlong),
			mk("bad-format", "use a malformed address", mkBadFormat),
		}
	case SemPacket:
		return []IndirectFault{
			mk("change-size", "grow the packet past any fixed buffer", mkOverlong),
			mk("bad-format", "use a malformed packet", mkBadFormat),
		}
	case SemHostName:
		return []IndirectFault{
			mk("change-length", "lengthen the host name", mkOverlong),
			mk("bad-format", "use a malformed host name", mkBadFormat),
		}
	case SemDNSReply:
		return []IndirectFault{
			mk("change-length", "lengthen the DNS reply", mkOverlong),
			mk("bad-format", "use a malformed reply", mkBadFormat),
		}
	case SemProcMessage:
		return []IndirectFault{
			mk("change-length", "lengthen the message", mkOverlong),
			mk("bad-format", "use a malformed message", mkBadFormat),
		}
	case SemRaw:
		return []IndirectFault{
			mk("change-length", "lengthen the value", mkOverlong),
			mk("bad-format", "scramble the value", mkBadFormat),
		}
	default:
		return nil
	}
}

// AllSemantics lists every semantic kind in Table 5 row order (plus the
// SemRaw fallback last).
func AllSemantics() []Semantic {
	return []Semantic{
		SemFileName, SemCommand, SemPathList, SemPermMask, SemFileExtension,
		SemIPAddress, SemPacket, SemHostName, SemDNSReply, SemProcMessage,
		SemRaw,
	}
}
