// Package turnin ports the Purdue turnin case study of Section 4.1: a
// set-UID-root submission program (1310 lines in the original) with the
// three flaws the paper found — a trusted-config assumption, a
// world-readable-Projlist assumption whose failure leaks protected files,
// and unsanitised "../" in submitted file names — plus the unchecked
// fixed-size buffers endemic to 1990s C.
//
// The paper's campaign identified 8 interaction places, injected 41
// perturbations, and found 9 that violate the security policy. The
// campaign constructed here reproduces those counts; see the package tests
// and the "Section 4.1: turnin" table that `go run ./cmd/papertables`
// prints.
package turnin

import (
	"strings"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
)

// SourceVersion identifies this package's world builder and program
// variants for source-level result caching: it becomes part of every
// campaign's inject.Campaign.Source identity (see apps.SuiteJobs).
// Bump it whenever the world construction or a program variant changes
// behaviour, or stale cached results will replay for the old code.
const SourceVersion = "1"

// World layout.
const (
	ConfigPath = "/usr/local/lib/turnin.cf"
	CourseRoot = "/u/cs352"
	SubmitDir  = CourseRoot + "/submit"
	Projlist   = CourseRoot + "/Projlist"

	// StagedRoot is the attacker's pre-staged course root: the payload the
	// trusted-config perturbations redirect turnin into. Its Projlist is a
	// symlink to /etc/shadow.
	StagedRoot = "/tmp/evil"

	InvokerUID = 100 // alice, the submitting student (also the perturber)
	TAUID      = 200 // the course account that owns the submit tree
)

// Vulnerable is the turnin the paper tested. Its interaction sites:
//
//	turnin:arg-course      argv course name (not in the 8 perturbed places)
//	turnin:open-config     fopen("/usr/local/lib/turnin.cf")     [site 1]
//	turnin:read-config     read of the trusted config            [site 2]
//	turnin:open-projlist   fopen(pcFile) — the paper's example   [site 3]
//	turnin:read-projlist   read + echo of the project list       [site 4]
//	turnin:arg-project     argv project name                     [site 5]
//	turnin:stat-submitdir  stat of the TA's submit directory     [site 6]
//	turnin:arg-file        argv submitted file name              [site 7]
//	turnin:create-dest     creat of the submission copy          [site 8]
func Vulnerable(p *kernel.Proc) int { return run(p, false) }

// Fixed is the repaired turnin: bounded copies, privilege drop around the
// Projlist read, symlink and ownership validation on every trusted object,
// exclusive creates, and ".." rejection in file names.
func Fixed(p *kernel.Proc) int { return run(p, true) }

func run(p *kernel.Proc, fixed bool) int {
	course := p.Arg("turnin:arg-course", 2)
	if course == "" {
		p.Eprintf("usage: turnin -c course -p project file\n")
		return 2
	}

	// [site 1] the trusted configuration file.
	if fixed {
		if st, err := p.Lstat("turnin:lstat-config", ConfigPath); err != nil || st.Symlink || st.UID != 0 {
			p.Eprintf("turnin: config file untrusted\n")
			return 1
		}
	}
	cf, err := p.Open("turnin:open-config", ConfigPath, kernel.ORead, 0)
	if err != nil {
		p.Eprintf("turnin: cannot open %s\n", ConfigPath)
		return 1
	}
	// [site 2] the config content: "<course> <root-dir>" lines.
	cfData, err := p.ReadAll("turnin:read-config", cf)
	p.Close(cf)
	if err != nil {
		p.Eprintf("turnin: config read error\n")
		return 1
	}
	root := ""
	for _, line := range strings.Split(string(cfData), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == course {
			root = fields[1]
			break
		}
	}
	if root == "" {
		p.Eprintf("turnin: unknown course %s\n", course)
		return 1
	}
	if fixed {
		if len(root) > 255 {
			p.Eprintf("turnin: config path too long\n")
			return 1
		}
		// The course root must belong to the course account or root and
		// must not be a link.
		if st, err := p.Lstat("turnin:lstat-root", root); err != nil || st.Symlink ||
			(st.UID != TAUID && st.UID != 0) {
			p.Eprintf("turnin: course root untrusted\n")
			return 1
		}
	} else {
		// Unchecked strcpy of the configured path into a fixed buffer.
		var rootBuf [256]byte
		n := p.CopyBounded(rootBuf[:], []byte(root))
		root = string(rootBuf[:n])
	}

	// [site 3] the project list — the paper's fopen(pcFile) example.
	projPath := root + "/Projlist"
	savedEUID := p.Cred.EUID
	if fixed {
		// Drop privileges so the open carries only the invoker's
		// authority: the fix for the /etc/shadow leak.
		if err := p.SetEUID(p.Cred.UID); err != nil {
			return 1
		}
		if st, err := p.Lstat("turnin:lstat-projlist", projPath); err != nil || st.Symlink {
			p.Eprintf("turnin: can not find project list file\n")
			return 9
		}
	}
	pf, err := p.Open("turnin:open-projlist", projPath, kernel.ORead, 0)
	if err != nil {
		p.Eprintf("turnin: can not find project list file\n")
		return 9
	}
	// [site 4] the project list content, echoed to the student.
	plData, err := p.ReadAll("turnin:read-projlist", pf)
	p.Close(pf)
	if err != nil {
		p.Eprintf("turnin: project list read error\n")
		return 9
	}
	if fixed {
		// Regain the service privilege for the submit-side work.
		if err := p.SetEUID(savedEUID); err != nil {
			return 1
		}
	}
	p.Printf("Projects for %s:\n", course)
	var projects []string
	for _, line := range strings.Split(strings.TrimRight(string(plData), "\n"), "\n") {
		if line == "" {
			continue
		}
		if fixed {
			if len(line) > 120 {
				p.Eprintf("turnin: project list entry too long\n")
				return 9
			}
		} else {
			// Unchecked copy of each list line into a fixed line buffer.
			var lineBuf [128]byte
			n := p.CopyBounded(lineBuf[:], []byte(line))
			line = string(lineBuf[:n])
		}
		projects = append(projects, line)
		p.Printf("  %s\n", line)
	}

	// [site 5] the requested project, validated against the list before
	// any copy.
	proj := p.Arg("turnin:arg-project", 4)
	found := false
	for _, pr := range projects {
		if pr == proj {
			found = true
			break
		}
	}
	if !found {
		p.Eprintf("turnin: no such project %q\n", proj)
		return 2
	}

	// [site 6] the TA's submit directory.
	submitDir := root + "/submit"
	if fixed {
		st, err := p.Lstat("turnin:stat-submitdir", submitDir)
		if err != nil || st.Symlink || st.Type.String() != "directory" || st.UID != TAUID {
			p.Eprintf("turnin: submit directory untrusted\n")
			return 3
		}
	} else {
		// The vulnerable version checks only that something stat-able is
		// there — following symlinks, trusting ownership.
		if _, err := p.Stat("turnin:stat-submitdir", submitDir); err != nil {
			p.Eprintf("turnin: no submit directory\n")
			return 3
		}
	}

	// [site 7] the submitted file name. The original forbade "/" at the
	// front but not "../" — the tar-member flaw.
	name := p.Arg("turnin:arg-file", 5)
	if name == "" {
		p.Eprintf("turnin: no file named\n")
		return 4
	}
	if strings.HasPrefix(name, "/") {
		p.Eprintf("turnin: illegal file name %q\n", name)
		return 4
	}
	if len(name) > 200 {
		p.Eprintf("turnin: file name too long\n")
		return 4
	}
	if fixed && strings.Contains(name, "..") {
		p.Eprintf("turnin: illegal file name %q\n", name)
		return 4
	}

	// Read the student's file (content comes from the base name in the
	// student's directory, the entry name is used verbatim — tar
	// semantics).
	srcName := name
	if i := strings.LastIndex(srcName, "/"); i >= 0 {
		srcName = srcName[i+1:]
	}
	src, err := p.ReadFile("turnin:src", srcName)
	if err != nil {
		p.Eprintf("turnin: cannot read %s: %v\n", srcName, err)
		return 5
	}

	// Ensure the per-project drop directory exists.
	projDir := submitDir + "/" + proj
	if _, err := p.Stat("turnin:stat-projdir", projDir); err != nil {
		if err := p.Mkdir("turnin:mkdir-proj", projDir, 0o700); err != nil {
			p.Eprintf("turnin: cannot create project directory: %v\n", err)
			return 6
		}
	}

	// [site 8] the privileged copy into the TA's tree.
	dest := projDir + "/" + name
	flags := kernel.OWrite | kernel.OCreate | kernel.OTrunc
	if fixed {
		flags = kernel.OWrite | kernel.OCreate | kernel.OExcl
	}
	df, err := p.Open("turnin:create-dest", dest, flags, 0o600)
	if err != nil {
		p.Eprintf("turnin: cannot store submission: %v\n", err)
		return 6
	}
	defer p.Close(df)
	if _, err := p.Write("turnin:write-dest", df, src); err != nil {
		p.Eprintf("turnin: write error\n")
		return 6
	}
	p.Printf("Submitted %s for %s/%s.\n", name, course, proj)
	return 0
}

// World builds the turnin environment: the trusted config, the course
// account's tree, the student's homework, and the attacker's staged
// payload root (a Projlist symlinked to /etc/shadow, ready for the
// trusted-config redirection).
func World(prog kernel.Program) inject.Factory {
	return image.FactoryWith(func(l inject.Launch) inject.Launch {
		l.Prog = prog
		return l
	})
}

// image memoizes the variant-independent turnin world; runs fork it
// copy-on-write.
var image = inject.NewWorldImage(func() (*kernel.Kernel, inject.Launch) {
	k := kernel.New()
	k.Users.Add(proc.User{Name: "alice", UID: InvokerUID, GID: InvokerUID})
	k.Users.Add(proc.User{Name: "cs352ta", UID: TAUID, GID: TAUID})
	must(k.FS.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0:root:/:/bin/sh\nalice:x:100:100::/home/alice:/bin/sh\n"), 0o644, 0, 0))
	must(k.FS.WriteFile("/etc/shadow", []byte("root:$1$SECRETHASH$abcdef:10000:\nalice:$1$STUDENThash$:10000:\n"), 0o600, 0, 0))
	must(k.FS.MkdirAll("/", "/usr/local/lib", 0o755, 0, 0))
	must(k.FS.WriteFile(ConfigPath, []byte("cs101 /u/cs101\ncs352 "+CourseRoot+"\n"), 0o644, 0, 0))
	must(k.FS.MkdirAll("/", CourseRoot, 0o755, TAUID, TAUID))
	must(k.FS.WriteFile(Projlist, []byte("assignment1\nassignment2\n"), 0o644, TAUID, TAUID))
	must(k.FS.MkdirAll("/", SubmitDir, 0o700, TAUID, TAUID))
	must(k.FS.WriteFile(CourseRoot+"/.login", []byte("setenv SHELL /bin/csh\n"), 0o644, TAUID, TAUID))
	must(k.FS.MkdirAll("/", "/home/alice", 0o755, InvokerUID, InvokerUID))
	must(k.FS.WriteFile("/home/alice/hw1.c", []byte("int main(void){return 42;}\n"), 0o644, InvokerUID, InvokerUID))
	must(k.FS.MkdirAll("/", "/tmp", 0o777, 0, 0))
	// The attacker's staged course root.
	must(k.FS.MkdirAll("/", StagedRoot, 0o755, InvokerUID, InvokerUID))
	if _, err := k.FS.Symlink("/", "/etc/shadow", StagedRoot+"/Projlist", InvokerUID, InvokerUID); err != nil {
		panic(err)
	}
	must(k.FS.WriteFile(StagedRoot+"/turnin.cf", []byte("cs352 "+StagedRoot+"\n"), 0o644, InvokerUID, InvokerUID))
	return k, inject.Launch{
		Cred: proc.Cred{UID: InvokerUID, GID: InvokerUID, EUID: 0, EGID: 0}, // set-UID root
		Env:  proc.NewEnv("PATH", "/usr/bin:/bin", "HOME", "/home/alice"),
		Cwd:  "/home/alice",
		Args: []string{"turnin", "-c", "cs352", "-p", "assignment1", "hw1.c"},
	}
})

// Sites are the paper's "8 interaction places where programmers could
// possibly have made assumptions about the environment".
func Sites() []string {
	return []string{
		"turnin:open-config",
		"turnin:read-config",
		"turnin:open-projlist",
		"turnin:read-projlist",
		"turnin:arg-project",
		"turnin:stat-submitdir",
		"turnin:arg-file",
		"turnin:create-dest",
	}
}

// Campaign returns the Section 4.1 campaign: 8 interaction places, 41
// perturbations, 9 violations against the vulnerable program.
func Campaign(prog kernel.Program) inject.Campaign {
	return inject.Campaign{
		Name:  "turnin",
		World: World(prog),
		Policy: policy.Policy{
			Invoker:  proc.NewCred(InvokerUID, InvokerUID),
			Attacker: proc.NewCred(InvokerUID, InvokerUID),
			// The program may legitimately write only the active
			// project's drop directory.
			TrustedWritePaths: []string{SubmitDir + "/assignment1"},
		},
		Faults: eai.Config{
			Attacker: proc.NewCred(InvokerUID, InvokerUID),
			// The malicious course-root payload for content perturbations
			// of the trusted config.
			AttackerContent: []byte("cs352 " + StagedRoot + "\n"),
			// A read-context symlink on the trusted config points at the
			// attacker's staged copy rather than at /etc/shadow directly
			// (shadow would fail to parse as a config).
			ReadTargetOverrides: map[string]string{
				ConfigPath: StagedRoot + "/turnin.cf",
			},
		},
		Sites: Sites(),
		Semantics: map[string]eai.Semantic{
			"turnin:read-config":   eai.SemFileName,
			"turnin:read-projlist": eai.SemFileName,
			"turnin:arg-project":   eai.SemFileName,
			"turnin:arg-file":      eai.SemFileName,
		},
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
