// Package maildrop is a local mail delivery agent exercising the
// environment-variable rows of Table 5: the PATH list an exec implicitly
// consults (the paper's example of an internal entity used invisibly by a
// system call) and a permission mask taken from the environment. Its
// process-input channel exercises the Table 6 process entity.
package maildrop

import (
	"strings"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// SourceVersion identifies this package's world builder and program
// variants for source-level result caching: it becomes part of every
// campaign's inject.Campaign.Source identity (see apps.SuiteJobs).
// Bump it whenever the world construction or a program variant changes
// behaviour, or stale cached results will replay for the old code.
const SourceVersion = "1"

// World identities and landmarks.
const (
	InvokerUID  = 100
	AttackerUID = 666

	MailDir  = "/var/mail"
	Sendmail = "/usr/bin/sendmail"
	// HijackDir is where the Table 5 insert-untrusted-path perturbation
	// points; the world stages an attacker binary there.
	HijackDir = "/tmp/attacker/bin"
)

// Vulnerable delivers the queued message and notifies the remote relay by
// exec'ing "sendmail" through PATH, applying whatever umask the
// environment supplies, and trusting the queued message blindly.
func Vulnerable(p *kernel.Proc) int {
	msg, err := p.MsgRecv("maildrop:recv-queue", "mailqueue")
	if err != nil {
		p.Eprintf("maildrop: queue empty\n")
		return 1
	}
	to := ""
	for _, line := range strings.Split(string(msg), "\n") {
		if rest, ok := strings.CutPrefix(line, "To: "); ok {
			to = rest
			break
		}
	}
	if to == "" || strings.ContainsAny(to, "/\x00") {
		p.Eprintf("maildrop: no recipient\n")
		return 1
	}

	// Trust the environment's delivery umask.
	if um := p.Getenv("maildrop:getenv-umask", "UMASK"); um != "" {
		p.SetUmask(parseOctal(um))
	}

	box, err := p.Open("maildrop:open-box", MailDir+"/"+to,
		kernel.OWrite|kernel.OCreate|kernel.OAppend, 0o600)
	if err != nil {
		p.Eprintf("maildrop: cannot open mailbox: %v\n", err)
		return 1
	}
	if _, err := p.Write("maildrop:write-box", box, append(msg, '\n')); err != nil {
		p.Close(box)
		return 1
	}
	p.Close(box)

	// Notify the relay — a bare command name, resolved through PATH.
	if _, err := p.Exec("maildrop:exec-sendmail", "sendmail"); err != nil {
		p.Eprintf("maildrop: relay notification failed: %v\n", err)
		return 1
	}
	p.Printf("delivered to %s\n", to)
	return 0
}

// Fixed pins the relay binary to an absolute path, verifies its ownership
// before exec, clamps the delivery umask, and validates queued messages.
func Fixed(p *kernel.Proc) int {
	msg, err := p.MsgRecv("maildrop:recv-queue", "mailqueue")
	if err != nil {
		p.Eprintf("maildrop: queue empty\n")
		return 1
	}
	if len(msg) > 64*1024 || !strings.HasPrefix(string(msg), "From: ") {
		p.Eprintf("maildrop: malformed queue entry\n")
		return 1
	}
	to := ""
	for _, line := range strings.Split(string(msg), "\n") {
		if rest, ok := strings.CutPrefix(line, "To: "); ok {
			to = rest
			break
		}
	}
	if to == "" || strings.ContainsAny(to, "/\x00") || len(to) > 64 {
		p.Eprintf("maildrop: bad recipient\n")
		return 1
	}

	// The delivery mask is policy, not environment: clamp to at least
	// owner-only regardless of what the environment says.
	if um := p.Getenv("maildrop:getenv-umask", "UMASK"); um != "" {
		mask := parseOctal(um)
		if mask&0o077 != 0o077 {
			mask |= 0o077
		}
		p.SetUmask(mask)
	}

	box, err := p.Open("maildrop:open-box", MailDir+"/"+to,
		kernel.OWrite|kernel.OCreate|kernel.OAppend, 0o600)
	if err != nil {
		return 1
	}
	if _, err := p.Write("maildrop:write-box", box, append(msg, '\n')); err != nil {
		p.Close(box)
		return 1
	}
	p.Close(box)

	// Absolute path, ownership check atomic with the exec, no PATH
	// involvement.
	if _, err := p.ExecTrusted("maildrop:exec-sendmail", Sendmail, 0); err != nil {
		p.Eprintf("maildrop: relay binary untrusted: %v\n", err)
		return 1
	}
	p.Printf("delivered to %s\n", to)
	return 0
}

func parseOctal(s string) vfs.Mode {
	var m vfs.Mode
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '7' {
			return 0o022
		}
		m = m<<3 | vfs.Mode(s[i]-'0')
	}
	return m & 0o777
}

// World stages the mail spool, the real relay binary, and — crucially —
// the attacker's sendmail in the directory the untrusted-path perturbation
// prepends.
func World(prog kernel.Program) inject.Factory {
	return image.FactoryWith(func(l inject.Launch) inject.Launch {
		l.Prog = prog
		return l
	})
}

// image memoizes the variant-independent maildrop world; runs fork it
// copy-on-write (mailbox queues are deep-copied per fork).
var image = inject.NewWorldImage(func() (*kernel.Kernel, inject.Launch) {
	k := kernel.New()
	k.Users.Add(proc.User{Name: "alice", UID: InvokerUID, GID: InvokerUID})
	k.Users.Add(proc.User{Name: "mallory", UID: AttackerUID, GID: AttackerUID})
	must(k.FS.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o644, 0, 0))
	must(k.FS.WriteFile("/etc/shadow", []byte("root:$1$MAILHASH$:1:\n"), 0o600, 0, 0))
	must(k.FS.MkdirAll("/", MailDir, 0o755, 0, 0))
	must(k.FS.WriteFile(MailDir+"/alice", []byte("From: bob\nTo: alice\n\nolder mail\n"), 0o600, InvokerUID, InvokerUID))
	must(k.FS.MkdirAll("/", "/usr/bin", 0o755, 0, 0))
	must(k.FS.WriteFile(Sendmail, []byte("#!"), 0o755, 0, 0))
	must(k.FS.MkdirAll("/", HijackDir, 0o777, AttackerUID, AttackerUID))
	must(k.FS.WriteFile(HijackDir+"/sendmail", []byte("#!"), 0o777, AttackerUID, AttackerUID))
	must(k.FS.MkdirAll("/", "/tmp", 0o777, 0, 0))
	k.PostMessage("mailqueue", []byte("From: bob\nTo: alice\n\nhello alice\n"))
	return k, inject.Launch{
		Cred: proc.Cred{UID: InvokerUID, GID: InvokerUID, EUID: 0, EGID: 0},
		Env:  proc.NewEnv("PATH", "/usr/bin:/bin", "UMASK", "077"),
		Cwd:  "/",
		Args: []string{"maildrop"},
	}
})

// Campaign perturbs the delivery agent's input channels: the queue, the
// environment mask, the implicit PATH lookup, and the exec object.
func Campaign(prog kernel.Program) inject.Campaign {
	return inject.Campaign{
		Name:  "maildrop",
		World: World(prog),
		Policy: policy.Policy{
			Invoker:           proc.NewCred(InvokerUID, InvokerUID),
			Attacker:          proc.NewCred(AttackerUID, AttackerUID),
			TrustedWritePaths: []string{MailDir},
		},
		Faults: eai.Config{Attacker: proc.NewCred(AttackerUID, AttackerUID)},
		Sites: []string{
			"maildrop:recv-queue",
			"maildrop:getenv-umask",
			"maildrop:exec-sendmail:PATH!implicit",
			"maildrop:exec-sendmail",
		},
		Semantics: map[string]eai.Semantic{
			"maildrop:getenv-umask": eai.SemPermMask,
			"maildrop:recv-queue":   eai.SemProcMessage,
		},
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
