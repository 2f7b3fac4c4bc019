package eai

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/interpose"
	"repro/internal/sim/kernel"
	"repro/internal/sim/netsim"
	"repro/internal/sim/proc"
	"repro/internal/sim/registry"
	"repro/internal/sim/vfs"
)

// ErrNotApplicable is returned by an applier whose precondition fails at
// injection time (e.g. perturbing a service on a world with no network).
var ErrNotApplicable = errors.New("eai: fault not applicable here")

// Config parameterises the direct-fault appliers: who the attacker is and
// which sensitive objects perturbations should aim at. These are the
// knobs a tester sets after studying the target (the paper's testers
// likewise crafted the Projlist→/etc/shadow and ../.login payloads by
// hand once the model told them where to aim).
type Config struct {
	// Attacker is the principal performing the perturbations.
	Attacker proc.Cred
	// AttackerDir is a directory the attacker can write (bait files are
	// planted there). Default "/tmp".
	AttackerDir string
	// ReadTarget is the confidentiality-sensitive file read perturbations
	// redirect to. Default "/etc/shadow".
	ReadTarget string
	// WriteTarget is the integrity-sensitive file write perturbations
	// redirect to. Default "/etc/passwd".
	WriteTarget string
	// DirTarget is the protected directory that directory-object symlink
	// perturbations redirect to. Default "/etc".
	DirTarget string
	// AttackerContent is the payload content faults substitute. Default
	// "OWNED-BY-ATTACKER\n".
	AttackerContent []byte
	// ReadTargetOverrides maps specific object paths to the symlink target
	// used when that object is perturbed in a read context. This is the
	// tester's crafted aiming — the paper's authors likewise pointed
	// turnin's trusted config at a staged payload once the model told
	// them the file was trusted.
	ReadTargetOverrides map[string]string
	// EvilHost is the identity forged messages claim to come from.
	EvilHost string
}

// readTargetFor returns the symlink target for a read-context perturbation
// of the given object.
func (c Config) readTargetFor(obj string) string {
	if t, ok := c.ReadTargetOverrides[obj]; ok {
		return t
	}
	return c.ReadTarget
}

// WithDefaults returns the config with unset fields filled in.
func (c Config) WithDefaults() Config {
	if c.AttackerDir == "" {
		c.AttackerDir = "/tmp"
	}
	if c.ReadTarget == "" {
		c.ReadTarget = "/etc/shadow"
	}
	if c.WriteTarget == "" {
		c.WriteTarget = "/etc/passwd"
	}
	if c.DirTarget == "" {
		c.DirTarget = "/etc"
	}
	if len(c.AttackerContent) == 0 {
		c.AttackerContent = []byte("OWNED-BY-ATTACKER\n")
	}
	if c.EvilHost == "" {
		c.EvilHost = "evil.example"
	}
	return c
}

// Ctx is everything a direct-fault applier may touch: the world, the
// intercepted call, and the attacker configuration. The engine constructs
// one per armed injection.
type Ctx struct {
	Kern *kernel.Kernel
	// Call is the intercepted interaction (mutable: appliers may also
	// redirect arguments, though most rewrite the world instead).
	Call *interpose.Call
	// Cwd is the working directory of the process at the interaction, for
	// resolving relative object paths.
	Cwd string
	// SetCwd reassigns the process working directory (the
	// working-directory perturbation). Provided by the engine.
	SetCwd func(string)
	Cfg    Config
}

// objPath returns the interaction's object path made absolute.
func (ctx *Ctx) objPath() string { return vfs.Canon(ctx.Cwd, ctx.Call.Path) }

// isWriteContext reports whether the interaction is about to write or
// create the object — symlink perturbations then aim at the write target,
// otherwise at the read target (paper Section 3.4: the spool file is
// linked to the password file; Section 4.1: Projlist is linked to
// /etc/shadow).
func (ctx *Ctx) isWriteContext() bool {
	switch ctx.Call.Op {
	case interpose.OpCreate, interpose.OpWrite, interpose.OpUnlink,
		interpose.OpRename, interpose.OpChmod, interpose.OpChown:
		return true
	}
	return ctx.Call.Flags&(kernel.OWrite|kernel.OTrunc) != 0
}

// DirectFault is one Table 6 perturbation. Apply rewrites the world at the
// armed interaction point, before the kernel acts (Section 3.3 step 6:
// direct faults are injected before the interaction point). Applies is the
// static applicability test evaluated against the pre-run world, which
// keeps per-point fault lists meaningful (the paper's lpr walk-through
// discards the content- and name-invariance attributes for a file being
// created for the first time).
type DirectFault struct {
	// ID is the stable identity "direct/<entity>/<attr>".
	ID     string
	Name   string
	Entity Entity
	Attr   Attr
	// Desc explains the perturbation in the words of Table 6.
	Desc string
	// Applies reports whether the fault is meaningful for the given
	// interaction and world state.
	Applies func(ctx *Ctx) bool
	// Apply performs the perturbation.
	Apply func(ctx *Ctx) error
}

// Class returns ClassDirect.
func (f DirectFault) Class() Class { return ClassDirect }

// lookupObj resolves the interaction's object without following a final
// symlink, returning nil when it does not exist.
func lookupObj(ctx *Ctx) *vfs.Inode {
	n, err := ctx.Kern.FS.LookupNoFollow("/", ctx.objPath())
	if err != nil {
		return nil
	}
	return n
}

// ensureParent creates any missing parent directories of path, owned by
// the attacker (the attacker arranges the filesystem shape their
// perturbation needs).
func ensureParent(ctx *Ctx, path string) error {
	dir := path[:strings.LastIndex(path, "/")+1]
	if dir == "" || dir == "/" {
		return nil
	}
	return ctx.Kern.FS.MkdirAll("/", dir, 0o755, ctx.Cfg.Attacker.UID, ctx.Cfg.Attacker.GID)
}

// plantAttackerFile writes an attacker-owned file with attacker content at
// path, creating parent directories as needed.
func plantAttackerFile(ctx *Ctx, path string, mode vfs.Mode) error {
	if err := ensureParent(ctx, path); err != nil {
		return err
	}
	return ctx.Kern.FS.WriteFile(path, ctx.Cfg.AttackerContent, mode, ctx.Cfg.Attacker.UID, ctx.Cfg.Attacker.GID)
}

// fileFaults builds the Table 6 file-system rows.
func fileFaults() []DirectFault {
	mk := func(attr Attr, name, desc string, applies func(*Ctx) bool, apply func(*Ctx) error) DirectFault {
		return DirectFault{
			ID:      "direct/file-system/" + name,
			Name:    name,
			Entity:  EntityFileSystem,
			Attr:    attr,
			Desc:    desc,
			Applies: applies,
			Apply:   apply,
		}
	}
	always := func(*Ctx) bool { return true }
	return []DirectFault{
		mk(AttrExistence, "existence",
			"delete an existing file or make a non-existing file exist",
			always,
			func(ctx *Ctx) error {
				p := ctx.objPath()
				if lookupObj(ctx) != nil {
					return ctx.Kern.FS.RemoveAll(p)
				}
				return plantAttackerFile(ctx, p, 0o644)
			}),
		mk(AttrOwnership, "ownership",
			"change ownership to the owner of the process, other normal users, or root",
			always,
			func(ctx *Ctx) error {
				n := lookupObj(ctx)
				if n == nil {
					// Make it exist first, owned by root: the hostile
					// pre-existing-owner variant of the lpr walk-through.
					p := ctx.objPath()
					if err := ensureParent(ctx, p); err != nil {
						return err
					}
					if err := ctx.Kern.FS.WriteFile(p, nil, 0o600, 0, 0); err != nil {
						return err
					}
					return nil
				}
				n = ctx.Kern.FS.Own(n)
				if n.UID == ctx.Cfg.Attacker.UID {
					n.UID, n.GID = 0, 0
				} else {
					n.UID, n.GID = ctx.Cfg.Attacker.UID, ctx.Cfg.Attacker.GID
				}
				n.Gen++
				return nil
			}),
		mk(AttrPermission, "permission",
			"flip the permission bits (restrict an open object to root, or open up a missing one)",
			always,
			func(ctx *Ctx) error {
				n := lookupObj(ctx)
				if n == nil {
					// Make the object exist with permissions that deny the
					// invoker — lpr then "writes to a file even when the
					// user who runs it does not have the appropriate
					// ownership and file permissions" (§3.4).
					return plantAttackerFile(ctx, ctx.objPath(), 0o600)
				}
				// Restrict to root: the Projlist perturbation of §4.1
				// ("making it only readable by root").
				n = ctx.Kern.FS.Own(n)
				n.UID, n.GID = 0, 0
				n.Mode = 0o600
				if n.Type == vfs.TypeDir {
					n.Mode = 0o700
				}
				n.Gen++
				return nil
			}),
		mk(AttrSymlink, "symbolic-link",
			"if the file is a symbolic link, change its target; otherwise change it to a symbolic link",
			always,
			func(ctx *Ctx) error {
				p := ctx.objPath()
				n := lookupObj(ctx)
				target := ctx.Cfg.readTargetFor(p)
				switch {
				case n != nil && n.Type == vfs.TypeDir:
					target = ctx.Cfg.DirTarget
				case ctx.isWriteContext():
					target = ctx.Cfg.WriteTarget
				}
				if n != nil {
					if n.Type == vfs.TypeSymlink {
						n = ctx.Kern.FS.Own(n)
						n.Target = target
						n.Gen++
						return nil
					}
					if err := ctx.Kern.FS.RemoveAll(p); err != nil {
						return err
					}
				}
				if err := ensureParent(ctx, p); err != nil {
					return err
				}
				_, err := ctx.Kern.FS.Symlink("/", target, p,
					ctx.Cfg.Attacker.UID, ctx.Cfg.Attacker.GID)
				return err
			}),
		mk(AttrContentInvariance, "content-invariance",
			"modify the file between check and use",
			func(ctx *Ctx) bool {
				n := lookupObj(ctx)
				return n != nil && n.Type == vfs.TypeRegular
			},
			func(ctx *Ctx) error {
				n := lookupObj(ctx)
				if n == nil || n.Type != vfs.TypeRegular {
					return ErrNotApplicable
				}
				n = ctx.Kern.FS.Own(n)
				n.Data = append([]byte(nil), ctx.Cfg.AttackerContent...)
				n.Gen++
				return nil
			}),
		mk(AttrNameInvariance, "name-invariance",
			"change the file name between check and use",
			func(ctx *Ctx) bool { return lookupObj(ctx) != nil },
			func(ctx *Ctx) error {
				p := ctx.objPath()
				if lookupObj(ctx) == nil {
					return ErrNotApplicable
				}
				return ctx.Kern.FS.Rename("/", p, p+".moved")
			}),
		mk(AttrWorkingDirectory, "working-directory",
			"start the application in a different directory",
			func(ctx *Ctx) bool {
				return !strings.HasPrefix(ctx.Call.Path, "/") && ctx.SetCwd != nil
			},
			func(ctx *Ctx) error {
				if ctx.SetCwd == nil {
					return ErrNotApplicable
				}
				dir := ctx.Cfg.AttackerDir + "/elsewhere"
				if err := ctx.Kern.FS.MkdirAll("/", dir, 0o777,
					ctx.Cfg.Attacker.UID, ctx.Cfg.Attacker.GID); err != nil {
					return err
				}
				ctx.SetCwd(dir)
				return nil
			}),
	}
}

// netFaults builds the Table 6 network rows. The object path of a network
// interaction is the service address.
func netFaults() []DirectFault {
	mk := func(attr Attr, name, desc string, apply func(*Ctx, *netsim.Service) error) DirectFault {
		return DirectFault{
			ID:     "direct/network/" + name,
			Name:   name,
			Entity: EntityNetwork,
			Attr:   attr,
			Desc:   desc,
			Applies: func(ctx *Ctx) bool {
				return ctx.Kern.Net != nil && ctx.Kern.Net.Service(ctx.Call.Path) != nil
			},
			Apply: func(ctx *Ctx) error {
				if ctx.Kern.Net == nil {
					return ErrNotApplicable
				}
				svc := ctx.Kern.Net.Service(ctx.Call.Path)
				if svc == nil {
					return fmt.Errorf("%w: no service at %s", ErrNotApplicable, ctx.Call.Path)
				}
				return apply(ctx, svc)
			},
		}
	}
	return []DirectFault{
		mk(AttrMsgAuthenticity, "message-authenticity",
			"make the message come from another network entity than expected",
			func(ctx *Ctx, svc *netsim.Service) error {
				for i := range svc.Script {
					svc.Script[i].From = ctx.Cfg.EvilHost
					svc.Script[i].Authentic = false
				}
				return nil
			}),
		mk(AttrProtocol, "protocol",
			"violate the protocol: omit a step, add an extra step, reorder steps",
			func(ctx *Ctx, svc *netsim.Service) error {
				if len(svc.Script) > 1 {
					svc.Script[0], svc.Script[len(svc.Script)-1] =
						svc.Script[len(svc.Script)-1], svc.Script[0]
				} else if len(svc.Script) == 1 {
					svc.Script = nil
				}
				if len(svc.Steps) > 0 {
					svc.Steps = svc.Steps[:len(svc.Steps)-1]
				}
				return nil
			}),
		mk(AttrSocketShare, "socket-share",
			"share the socket with another process",
			func(ctx *Ctx, svc *netsim.Service) error {
				svc.SharedWith = "attacker-process"
				return nil
			}),
		mk(AttrServiceAvail, "service-availability",
			"deny the service the application is asking for",
			func(ctx *Ctx, svc *netsim.Service) error {
				svc.Available = false
				return nil
			}),
		mk(AttrTrustability, "entity-trustability",
			"replace the entity the application interacts with by an untrusted one",
			func(ctx *Ctx, svc *netsim.Service) error {
				svc.Trusted = false
				svc.Host = ctx.Cfg.EvilHost
				for i := range svc.Script {
					svc.Script[i].From = ctx.Cfg.EvilHost
					// Provenance from an untrusted entity is by definition
					// not authentic.
					svc.Script[i].Authentic = false
				}
				return nil
			}),
	}
}

// procFaults builds the Table 6 process rows. The object path of a process
// interaction is the mailbox name.
func procFaults() []DirectFault {
	mk := func(attr Attr, name, desc string, apply func(*Ctx) error) DirectFault {
		return DirectFault{
			ID:     "direct/process/" + name,
			Name:   name,
			Entity: EntityProcess,
			Attr:   attr,
			Desc:   desc,
			Applies: func(ctx *Ctx) bool {
				return ctx.Call.Kind == interpose.KindProcess
			},
			Apply: apply,
		}
	}
	return []DirectFault{
		mk(AttrMsgAuthenticity, "message-authenticity",
			"make the message come from another process than expected",
			func(ctx *Ctx) error {
				ctx.Kern.SetMailbox(ctx.Call.Path, [][]byte{
					append([]byte("FORGED:"), ctx.Cfg.AttackerContent...),
				})
				return nil
			}),
		mk(AttrTrustability, "process-trustability",
			"replace the peer process by an untrusted one",
			func(ctx *Ctx) error {
				ctx.Kern.SetMailbox(ctx.Call.Path, [][]byte{ctx.Cfg.AttackerContent})
				return nil
			}),
		mk(AttrServiceAvail, "service-availability",
			"deny the service the application is asking for",
			func(ctx *Ctx) error {
				ctx.Kern.SetMailbox(ctx.Call.Path, nil)
				return nil
			}),
	}
}

// regFaults builds the registry rows — the Section 4.2 extension of the
// model. They apply only when the key is unprotected: the perturbation
// must be one a real unprivileged attacker could perform.
func regFaults() []DirectFault {
	unprotected := func(ctx *Ctx) *registry.Registry {
		if ctx.Kern.Reg == nil {
			return nil
		}
		k, err := ctx.Kern.Reg.Open(ctx.Call.Path, registry.Administrator)
		if err != nil || !k.Unprotected() {
			return nil
		}
		return ctx.Kern.Reg
	}
	return []DirectFault{
		{
			ID:     "direct/registry/value-content",
			Name:   "value-content",
			Entity: EntityRegistry,
			Attr:   AttrRegValueContent,
			Desc:   "rewrite the value of an unprotected key to name a security-critical object",
			Applies: func(ctx *Ctx) bool {
				return unprotected(ctx) != nil
			},
			Apply: func(ctx *Ctx) error {
				reg := unprotected(ctx)
				if reg == nil {
					return ErrNotApplicable
				}
				return reg.SetString(ctx.Call.Path, ctx.Call.Path2,
					ctx.Cfg.WriteTarget, registry.Everyone)
			},
		},
		{
			ID:     "direct/registry/value-delete",
			Name:   "value-delete",
			Entity: EntityRegistry,
			Attr:   AttrRegValueDelete,
			Desc:   "remove the value of an unprotected key",
			Applies: func(ctx *Ctx) bool {
				reg := unprotected(ctx)
				if reg == nil {
					return false
				}
				k, err := reg.Open(ctx.Call.Path, registry.Administrator)
				if err != nil {
					return false
				}
				return k.ACL.Grants(registry.Everyone, registry.RightDelete)
			},
			Apply: func(ctx *Ctx) error {
				reg := unprotected(ctx)
				if reg == nil {
					return ErrNotApplicable
				}
				return reg.DeleteValue(ctx.Call.Path, ctx.Call.Path2, registry.Everyone)
			},
		},
	}
}

// directCatalogs holds each entity's Table 6 perturbations, indexed by
// Entity. They are built once: planning asks for a catalog at every
// interaction point of every campaign.
var directCatalogs = [...][]DirectFault{
	EntityFileSystem: fileFaults(),
	EntityNetwork:    netFaults(),
	EntityProcess:    procFaults(),
	EntityRegistry:   regFaults(),
}

// CatalogDirect returns the Table 6 perturbations for an entity kind, in
// catalog order. The returned slice is shared; callers must not modify
// it.
func CatalogDirect(e Entity) []DirectFault {
	if e < 0 || int(e) >= len(directCatalogs) {
		return nil
	}
	return directCatalogs[e]
}

// AllEntities lists the direct-fault entities in Table 3 order plus the
// registry extension.
func AllEntities() []Entity {
	return []Entity{EntityFileSystem, EntityNetwork, EntityProcess, EntityRegistry}
}
