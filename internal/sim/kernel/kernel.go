// Package kernel is the simulated operating-system layer: it joins the
// filesystem, network, and registry substrates with process credentials
// and exposes a UNIX-flavoured syscall API to simulated applications.
//
// Every syscall is routed through the interpose.Bus, making each one an
// environment-interaction point in the sense of Du & Mathur (DSN 2000,
// Section 3): pre-hooks perturb the environment before the kernel acts
// (direct faults), post-hooks perturb what the application receives
// (indirect faults), and the bus records the execution trace the
// methodology enumerates.
package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"sort"

	"repro/internal/interpose"
	"repro/internal/sim/netsim"
	"repro/internal/sim/proc"
	"repro/internal/sim/registry"
	"repro/internal/sim/vfs"
)

// Static errors in the errno style.
var (
	ErrPerm     = errors.New("kernel: permission denied")
	ErrBadFD    = errors.New("kernel: bad file descriptor")
	ErrNoExec   = errors.New("kernel: exec format error")
	ErrNotFound = errors.New("kernel: command not found")
	ErrNoNet    = errors.New("kernel: no network configured")
	ErrNoReg    = errors.New("kernel: no registry configured")
)

// Program is a simulated executable: application code written against the
// kernel syscall API. The return value is the process exit code.
type Program func(p *Proc) int

// Kernel is one simulated machine: substrates, account database, process
// mailboxes, and the interaction bus for the current run.
type Kernel struct {
	FS    *vfs.FS
	Net   *netsim.Net
	Reg   *registry.Registry
	Users *proc.Users
	Bus   *interpose.Bus

	mailboxes map[string][][]byte
	// sharedMailboxes marks a fork whose mailbox table is still its
	// snapshot's; the first write copies the table (ownMailboxes).
	sharedMailboxes bool
}

// PostMessage enqueues a process-input message for MsgRecv. World builders
// and the process-input fault appliers use it directly.
func (k *Kernel) PostMessage(mailbox string, data []byte) {
	k.ownMailboxes()
	k.mailboxes[mailbox] = append(k.mailboxes[mailbox], append([]byte(nil), data...))
}

// ownMailboxes readies the mailbox table for a write: it makes a missing
// table and copies a fork's shared one. The queues are the snapshot's
// exact-length copies, so appending to one reallocates it, and popping
// only reslices; the messages are never written, so they stay shared.
func (k *Kernel) ownMailboxes() {
	switch {
	case k.mailboxes == nil:
		k.mailboxes = make(map[string][][]byte)
	case k.sharedMailboxes:
		k.mailboxes = maps.Clone(k.mailboxes)
	}
	k.sharedMailboxes = false
}

// PeekMailbox returns the queued messages for a mailbox (for perturbation
// and tests). The caller must not modify them: a fork's queues may be its
// snapshot's.
func (k *Kernel) PeekMailbox(mailbox string) [][]byte { return k.mailboxes[mailbox] }

// MailboxNames returns every mailbox with queued messages, sorted. World
// composition uses it to carry one member world's process-input queues
// into a merged kernel.
func (k *Kernel) MailboxNames() []string {
	names := make([]string, 0, len(k.mailboxes))
	for name, msgs := range k.mailboxes {
		if len(msgs) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// SetMailbox replaces a mailbox queue.
func (k *Kernel) SetMailbox(mailbox string, msgs [][]byte) {
	k.ownMailboxes()
	k.mailboxes[mailbox] = msgs
}

// New returns a kernel with a fresh filesystem, account database, and
// interaction bus. Network and registry substrates are optional; attach
// them directly when a world needs them.
func New() *Kernel {
	return &Kernel{
		FS:    vfs.New(),
		Users: proc.NewUsers(),
		Bus:   interpose.NewBus(),
	}
}

// NewProc creates a process with the given credentials, environment, and
// working directory. The process only reads env, so one launch
// environment can start any number of processes, concurrent ones
// included.
func (k *Kernel) NewProc(cred proc.Cred, env proc.Env, cwd string, args ...string) *Proc {
	if cwd == "" {
		cwd = "/"
	}
	return &Proc{
		K:     k,
		Cred:  cred,
		Umask: 0o022,
		Env:   env,
		Args:  args,
		Cwd:   cwd,
	}
}

// Crash is the uncontrolled-failure outcome of a simulated memory error
// (e.g. an unchecked buffer copy). The Fuzz comparison counts crashes; the
// EAI oracle treats them as failed toleration too.
type Crash struct {
	Msg string
}

// Error implements error.
func (c *Crash) Error() string { return "crash: " + c.Msg }

// Run executes prog in process p, converting a simulated memory error into
// a Crash result instead of unwinding the test harness. Exit code 139
// (SIGSEGV-style) is reported for crashes.
func (k *Kernel) Run(p *Proc, prog Program) (exit int, crash *Crash) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*Crash)
			if !ok {
				panic(r)
			}
			exit, crash = 139, c
		}
	}()
	return prog(p), nil
}

// Proc is a simulated process. All syscalls are methods on Proc so every
// interaction carries the caller's credentials.
type Proc struct {
	K     *Kernel
	Cred  proc.Cred
	Umask vfs.Mode
	Env   proc.Env
	Args  []string
	Cwd   string

	Stdout bytes.Buffer
	Stderr bytes.Buffer

	// call and res are the interaction in flight: each syscall fills them
	// in place rather than allocating its own.
	call interpose.Call
	res  interpose.Result
}

// Printf writes formatted output to the process's stdout, which the
// security oracle treats as invoker-visible.
func (p *Proc) Printf(format string, args ...any) {
	fmt.Fprintf(&p.Stdout, format, args...)
}

// Eprintf writes formatted output to stderr.
func (p *Proc) Eprintf(format string, args ...any) {
	fmt.Fprintf(&p.Stderr, format, args...)
}

// Crash aborts the process with a simulated memory error.
func (p *Proc) Crash(format string, args ...any) {
	panic(&Crash{Msg: fmt.Sprintf(format, args...)})
}

// CopyBounded models the classic unchecked strcpy into a fixed buffer: if
// src exceeds the buffer, the process crashes (simulating the memory
// corruption a real overflow causes). It returns the number of bytes
// copied.
func (p *Proc) CopyBounded(dst []byte, src []byte) int {
	if len(src) > len(dst) {
		p.Crash("buffer overflow: copying %d bytes into %d-byte buffer", len(src), len(dst))
	}
	return copy(dst, src)
}

// SetEUID changes the effective uid. Permitted when the process is
// privileged, or when switching among the real and saved uids (seteuid
// semantics — a set-UID program may drop privilege and regain it).
func (p *Proc) SetEUID(uid int) error {
	if p.Cred.EUID != 0 && uid != p.Cred.UID && uid != p.Cred.SUID {
		return fmt.Errorf("%w: seteuid(%d) from euid %d", ErrPerm, uid, p.Cred.EUID)
	}
	p.Cred.EUID = uid
	return nil
}

// begin makes c the process's interaction in flight, stamps it with the
// caller's credentials and working directory, and dispatches it through
// the bus. The returned call is valid until the process's next begin.
func (p *Proc) begin(c interpose.Call) *interpose.Call {
	p.call = c
	p.call.UID = p.Cred.UID
	p.call.EUID = p.Cred.EUID
	p.call.GID = p.Cred.GID
	p.call.EGID = p.Cred.EGID
	p.call.Cwd = p.Cwd
	p.K.Bus.Begin(&p.call)
	return &p.call
}

// end completes the interaction in flight with result r on the bus and
// returns the result as the hooks left it, valid until the process's next
// end.
func (p *Proc) end(r interpose.Result, resolved string) *interpose.Result {
	p.res = r
	p.K.Bus.End(&p.call, &p.res, resolved)
	return &p.res
}
