package inject

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"sort"

	"repro/internal/interpose"
)

// This file keeps the fingerprint hasher as it was first written: every
// field streamed through io.Writer helpers into a sha256 hash.Hash. The
// production hasher (fingerprint.go) appends the same bytes to one
// reused buffer; the reference stays here so tests can check that every
// content address is unchanged.

// referenceFingerprint is (*ExecPlan).Fingerprint over the io.Writer
// helpers.
func referenceFingerprint(p *ExecPlan, labels ...string) string {
	h := sha256.New()
	fpStr(h, EngineVersion)
	fpInt(h, len(labels))
	for _, l := range labels {
		fpStr(h, l)
	}

	fpCampaign(h, &p.campaign)
	fpOptions(h, p.opt)

	fpInt(h, len(p.shell.CleanTrace))
	for i := range p.shell.CleanTrace {
		fpEvent(h, &p.shell.CleanTrace[i])
	}

	fpInt(h, p.NumRuns())
	for i := 0; i < p.NumRuns(); i++ {
		pl := p.Planned(i)
		fpStr(h, pl.Point)
		fpStr(h, pl.FaultID)
		fpInt(h, int(pl.Kind))
		fpInt(h, int(pl.Class))
		fpInt(h, int(pl.Attr))
		fpInt(h, int(pl.Sem))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// referenceSourceFingerprint is SourceFingerprint over the io.Writer
// helpers.
func referenceSourceFingerprint(c Campaign, opt Options, labels ...string) (string, bool) {
	if c.Source == "" {
		return "", false
	}
	c.Faults = c.Faults.WithDefaults()
	h := sha256.New()
	fpStr(h, EngineVersion, "source-fingerprint", c.Source)
	fpInt(h, len(labels))
	for _, l := range labels {
		fpStr(h, l)
	}
	fpCampaign(h, &c)
	fpOptions(h, opt)
	return fmt.Sprintf("%x", h.Sum(nil)), true
}

// fpCampaign hashes the campaign fields the runs consume.
func fpCampaign(h hash.Hash, c *Campaign) {
	fpStr(h, c.Name)
	fpInt(h, len(c.Sites))
	for _, s := range c.Sites {
		fpStr(h, s)
	}
	sems := make([]string, 0, len(c.Semantics))
	for site := range c.Semantics {
		sems = append(sems, site)
	}
	sort.Strings(sems)
	fpInt(h, len(sems))
	for _, site := range sems {
		fpStr(h, site)
		fpInt(h, int(c.Semantics[site]))
	}

	pol := c.Policy
	fpInt(h, pol.Invoker.UID, pol.Invoker.GID, pol.Invoker.EUID, pol.Invoker.EGID, pol.Invoker.SUID)
	fpInt(h, pol.Attacker.UID, pol.Attacker.GID, pol.Attacker.EUID, pol.Attacker.EGID, pol.Attacker.SUID)
	fpInt(h, len(pol.TrustedWritePaths))
	for _, p := range pol.TrustedWritePaths {
		fpStr(h, p)
	}
	fpInt(h, pol.MinLeakLen)

	cfg := c.Faults
	fpInt(h, cfg.Attacker.UID, cfg.Attacker.GID, cfg.Attacker.EUID, cfg.Attacker.EGID, cfg.Attacker.SUID)
	fpStr(h, cfg.AttackerDir, cfg.ReadTarget, cfg.WriteTarget, cfg.DirTarget, string(cfg.AttackerContent), cfg.EvilHost)
	overrides := make([]string, 0, len(cfg.ReadTargetOverrides))
	for obj := range cfg.ReadTargetOverrides {
		overrides = append(overrides, obj)
	}
	sort.Strings(overrides)
	fpInt(h, len(overrides))
	for _, obj := range overrides {
		fpStr(h, obj, cfg.ReadTargetOverrides[obj])
	}
}

// fpOptions hashes the engine options.
func fpOptions(h hash.Hash, opt Options) {
	fpBool(h, opt.NoObjectDedup, opt.OnlyDirect, opt.OnlyIndirect, opt.DirectAfterPoint)
}

// fpEvent hashes one clean-trace event.
func fpEvent(h hash.Hash, ev *interpose.Event) {
	c := &ev.Call
	fpInt(h, c.Seq, c.Occur, c.Flags, c.UID, c.EUID, c.GID, c.EGID, int(c.Mode), int(c.Kind))
	fpStr(h, c.Site, string(c.Op), c.Path, c.Path2, string(c.Data), c.Cwd)
	r := &ev.Result
	fpStr(h, string(r.Data), r.Str)
	fpInt(h, r.N)
	fpBool(h, r.Flag)
	if r.Err != nil {
		fpStr(h, r.Err.Error())
	} else {
		fpStr(h, "")
	}
	fpStr(h, ev.ResolvedPath)
	fpBool(h, ev.Mutated)
}

// fpStr writes length-prefixed strings.
func fpStr(w io.Writer, parts ...string) {
	for _, s := range parts {
		fpInt(w, len(s))
		io.WriteString(w, s)
	}
}

// fpInt writes fixed-width integers.
func fpInt(w io.Writer, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		w.Write(buf[:])
	}
}

// fpBool writes booleans as one byte each.
func fpBool(w io.Writer, vs ...bool) {
	for _, v := range vs {
		b := byte(0)
		if v {
			b = 1
		}
		w.Write([]byte{b})
	}
}
