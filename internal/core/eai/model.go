// Package eai implements the Environment-Application Interaction fault
// model of Du & Mathur (DSN 2000): the taxonomy of environment faults
// (Section 2.3), the indirect-fault catalog of Table 5, and the
// direct-fault catalog of Table 6.
//
// Indirect environment faults enter the application through an input and
// propagate via internal entities; they are expressed here as mutators
// applied to the value an interaction returns. Direct environment faults
// stay in the environment entity itself; they are expressed as appliers
// that rewrite the simulated world immediately before an interaction
// fires.
package eai

import (
	"fmt"

	"repro/internal/interpose"
)

// Class separates the two halves of the EAI model (Figure 1).
type Class int

// Fault classes.
const (
	// ClassIndirect faults propagate via internal entities (Figure 1a).
	ClassIndirect Class = iota + 1
	// ClassDirect faults act through the environment entity (Figure 1b).
	ClassDirect
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case ClassIndirect:
		return "indirect"
	case ClassDirect:
		return "direct"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Origin classifies indirect faults by input channel (Table 2).
type Origin int

// Indirect-fault origins, in the order of Table 2.
const (
	OriginUserInput Origin = iota + 1
	OriginEnvVar
	OriginFileInput
	OriginNetworkInput
	OriginProcessInput
)

// String returns the origin name as printed in Table 2.
func (o Origin) String() string {
	switch o {
	case OriginUserInput:
		return "user-input"
	case OriginEnvVar:
		return "environment-variable"
	case OriginFileInput:
		return "file-system-input"
	case OriginNetworkInput:
		return "network-input"
	case OriginProcessInput:
		return "process-input"
	default:
		return fmt.Sprintf("Origin(%d)", int(o))
	}
}

// Entity classifies direct faults by environment entity (Table 3), with
// the registry added as the NT-specific entity of Section 4.2.
type Entity int

// Direct-fault entities.
const (
	EntityFileSystem Entity = iota + 1
	EntityNetwork
	EntityProcess
	EntityRegistry
)

// String returns the entity name as printed in Table 3.
func (e Entity) String() string {
	switch e {
	case EntityFileSystem:
		return "file-system"
	case EntityNetwork:
		return "network"
	case EntityProcess:
		return "process"
	case EntityRegistry:
		return "registry"
	default:
		return fmt.Sprintf("Entity(%d)", int(e))
	}
}

// Attr is a perturbable attribute of an environment entity — one row of
// Table 6 (or, for the file system, one column of Table 4).
type Attr int

// Attributes. File-system attributes come first, in Table 4 column order.
const (
	AttrExistence Attr = iota + 1
	AttrSymlink
	AttrPermission
	AttrOwnership
	AttrContentInvariance
	AttrNameInvariance
	AttrWorkingDirectory

	AttrMsgAuthenticity
	AttrProtocol
	AttrSocketShare
	AttrServiceAvail
	AttrTrustability

	AttrRegValueContent
	AttrRegValueDelete
)

// String returns the attribute name as printed in Tables 4 and 6.
func (a Attr) String() string {
	switch a {
	case AttrExistence:
		return "existence"
	case AttrSymlink:
		return "symbolic-link"
	case AttrPermission:
		return "permission"
	case AttrOwnership:
		return "ownership"
	case AttrContentInvariance:
		return "content-invariance"
	case AttrNameInvariance:
		return "name-invariance"
	case AttrWorkingDirectory:
		return "working-directory"
	case AttrMsgAuthenticity:
		return "message-authenticity"
	case AttrProtocol:
		return "protocol"
	case AttrSocketShare:
		return "socket-share"
	case AttrServiceAvail:
		return "service-availability"
	case AttrTrustability:
		return "entity-trustability"
	case AttrRegValueContent:
		return "registry-value-content"
	case AttrRegValueDelete:
		return "registry-value-delete"
	default:
		return fmt.Sprintf("Attr(%d)", int(a))
	}
}

// Semantic identifies the meaning of an input value — the left column of
// Table 5. The catalog of applicable perturbations depends on it.
type Semantic int

// Semantic input kinds, in Table 5 row order. SemRaw is the fallback for
// inputs whose semantics the tester has not annotated.
const (
	SemFileName Semantic = iota + 1
	SemCommand
	SemPathList
	SemPermMask
	SemFileExtension
	SemIPAddress
	SemPacket
	SemHostName
	SemDNSReply
	SemProcMessage
	SemRaw
)

// String returns the semantic name as printed in Table 5.
func (s Semantic) String() string {
	switch s {
	case SemFileName:
		return "file-name"
	case SemCommand:
		return "command"
	case SemPathList:
		return "path-list"
	case SemPermMask:
		return "permission-mask"
	case SemFileExtension:
		return "file-extension"
	case SemIPAddress:
		return "ip-address"
	case SemPacket:
		return "packet"
	case SemHostName:
		return "host-name"
	case SemDNSReply:
		return "dns-reply"
	case SemProcMessage:
		return "process-message"
	case SemRaw:
		return "raw"
	default:
		return fmt.Sprintf("Semantic(%d)", int(s))
	}
}

// EntityForKind maps an interaction's object kind to the Table 3 entity
// perturbed by direct faults. Kinds with no direct-fault entity (pure
// inputs such as argv and environment variables) map to 0.
func EntityForKind(k interpose.ObjectKind) Entity {
	switch k {
	case interpose.KindFile, interpose.KindDir:
		return EntityFileSystem
	case interpose.KindNetwork:
		return EntityNetwork
	case interpose.KindProcess:
		return EntityProcess
	case interpose.KindRegistry:
		return EntityRegistry
	default:
		return 0
	}
}

// InferSemantic guesses the semantic kind of an input interaction when the
// campaign has not annotated the site. The inference mirrors how a tester
// reads Table 5: PATH-like variables are path lists, DNS replies are DNS
// replies, network payloads are packets, process messages are messages;
// everything else is raw.
func InferSemantic(op interpose.Op, objectPath string) Semantic {
	switch op {
	case interpose.OpGetenv:
		switch objectPath {
		case "PATH", "LD_LIBRARY_PATH", "LIBPATH":
			return SemPathList
		case "UMASK":
			return SemPermMask
		case "HOME", "TMPDIR", "PWD":
			return SemFileName
		default:
			return SemRaw
		}
	case interpose.OpDNS:
		return SemDNSReply
	case interpose.OpRecv, interpose.OpAccept:
		return SemPacket
	case interpose.OpMsgRecv:
		return SemProcMessage
	case interpose.OpReadlink:
		return SemFileName
	default:
		return SemRaw
	}
}
