package kernel

import (
	"fmt"
	"strings"

	"repro/internal/interpose"
	"repro/internal/sim/vfs"
)

// Getenv reads an environment variable through the bus — the
// environment-variable input channel of Table 5. Missing variables return
// the empty string, as with getenv(3).
func (p *Proc) Getenv(site, name string) string {
	c := p.begin(interpose.Call{
		Site: site, Op: interpose.OpGetenv, Kind: interpose.KindEnvVar, Path: name,
	})
	val, ok := p.Env[c.Path]
	var data []byte
	if ok {
		data = []byte(val)
	}
	r := p.end(interpose.Result{Data: data, Flag: ok}, c.Path)
	return delivered(r.Data, val)
}

// delivered returns what an interaction handed the application as a
// string: s itself when the bytes are still s's, so the syscall converts
// its result once, and a conversion of data only when a hook changed it.
func delivered(data []byte, s string) string {
	if string(data) == s {
		return s
	}
	return string(data)
}

// Arg fetches the i'th command-line argument through the bus — the user
// input channel of Table 5. Out-of-range indices return "".
func (p *Proc) Arg(site string, i int) string {
	c := p.begin(interpose.Call{
		Site: site, Op: interpose.OpArg, Kind: interpose.KindArg,
		Path: fmt.Sprintf("argv[%d]", i), Flags: i,
	})
	var val string
	if c.Flags >= 0 && c.Flags < len(p.Args) {
		val = p.Args[c.Flags]
	}
	r := p.end(interpose.Result{Data: []byte(val)}, c.Path)
	return delivered(r.Data, val)
}

// Umask0 models umask(0): it returns the previous mask. The permission-mask
// perturbation of Table 5 targets the mask an application inherits.
func (p *Proc) SetUmask(mask vfs.Mode) vfs.Mode {
	old := p.Umask
	p.Umask = mask & 0o777
	return old
}

// Exec executes the file at path and returns its exit code. Names without
// a slash are resolved through the PATH environment variable — an
// *implicit* environment interaction (the paper's example of an internal
// entity used invisibly by a system call), surfaced on the bus with an
// ":PATH!implicit" site suffix. No program image runs: an executable
// regular file the caller may execute exits 0. The exec *event* — what
// was resolved, and with whose credentials — is what the security oracle
// judges.
func (p *Proc) Exec(site, path string) (int, error) {
	lookPath := path
	if !strings.Contains(path, "/") {
		dirs := splitPathList(p.Getenv(site+":PATH!implicit", "PATH"))
		found := ""
		for _, d := range dirs {
			cand := d + "/" + path
			if n, err := p.K.FS.Lookup(p.Cwd, cand); err == nil && n.Type == vfs.TypeRegular {
				found = cand
				break
			}
		}
		if found == "" {
			// Still record the failed exec interaction.
			p.begin(interpose.Call{
				Site: site, Op: interpose.OpExec, Kind: interpose.KindFile, Path: path,
			})
			r := p.end(interpose.Result{Err: fmt.Errorf("%w: %s", ErrNotFound, path)}, "")
			return 127, r.Err
		}
		lookPath = found
	}

	c := p.begin(interpose.Call{
		Site: site, Op: interpose.OpExec, Kind: interpose.KindFile, Path: lookPath,
	})
	exit, resolved, err := p.execResolved(c.Path)
	r := p.end(interpose.Result{N: exit, Err: err}, resolved)
	return r.N, r.Err
}

// ExecTrusted is exec with an ownership check atomic with the exec itself
// (the fexecve discipline): the binary must be owned by requireUID and
// grant no write to group or other at the moment of execution. A
// stat-then-exec sequence leaves a TOCTTOU window that environment
// perturbation exploits; this call closes it.
func (p *Proc) ExecTrusted(site, path string, requireUID int) (int, error) {
	c := p.begin(interpose.Call{
		Site: site, Op: interpose.OpExec, Kind: interpose.KindFile, Path: path,
	})
	var (
		exit     int
		resolved string
		err      error
	)
	res, rerr := p.K.FS.Resolve(p.Cwd, c.Path, true)
	switch {
	case rerr != nil:
		exit, err = 126, rerr
	case res.Node == nil:
		exit, resolved, err = 127, res.Path, fmt.Errorf("%w: %s", vfs.ErrNotExist, res.Path)
	case res.Node.UID != requireUID || res.Node.Mode&0o022 != 0:
		exit, resolved, err = 126, res.Path,
			fmt.Errorf("%w: %s not exclusively owned by uid %d", ErrPerm, res.Path, requireUID)
	default:
		exit, resolved, err = p.execResolved(c.Path)
	}
	r := p.end(interpose.Result{N: exit, Err: err}, resolved)
	return r.N, r.Err
}

// execResolved resolves path, checks that it names a regular file the
// caller may execute, and reports the exit code, the resolved path and
// the error the exec returns.
func (p *Proc) execResolved(path string) (int, string, error) {
	res, err := p.K.FS.Resolve(p.Cwd, path, true)
	if err != nil {
		return 126, "", err
	}
	if res.Node == nil {
		return 127, res.Path, fmt.Errorf("%w: %s", vfs.ErrNotExist, res.Path)
	}
	if res.Node.Type != vfs.TypeRegular {
		return 126, res.Path, fmt.Errorf("%w: %s", ErrNoExec, res.Path)
	}
	if !vfs.Allows(res.Node, p.Cred.EUID, p.Cred.EGID, vfs.WantExec) {
		return 126, res.Path, fmt.Errorf("%w: exec %s", ErrPerm, res.Path)
	}
	return 0, res.Path, nil
}

// splitPathList splits a colon-separated PATH value, dropping empties.
func splitPathList(v string) []string {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ":")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
