// Package ntreg reproduces the Windows NT registry case study of
// Section 4.2. The paper found 29 registry keys in NT 4.0 (SP3) writable
// by every user, exploited 9 of them through the modules that consume
// them, and speculated the remaining 20 share the vulnerabilities. Per the
// Microsoft agreement the paper names no keys, only the two module
// behaviours: a module that deletes the file a font key names, and a logon
// module that loads profiles from a directory a key names without checking
// the directory's trustability.
//
// This package builds that world structurally: three privileged consumer
// modules (font cleanup, screen-saver launcher, updater) reading 9
// unprotected keys, 20 unconsumed unprotected keys, and the logon module
// reading a *protected* key whose named directory is perturbable.
package ntreg

import (
	"strings"

	"repro/internal/core/inject"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
	"repro/internal/sim/registry"
)

// SourceVersion identifies this package's world builder and program
// variants for source-level result caching: it becomes part of every
// campaign's inject.Campaign.Source identity (see apps.SuiteJobs).
// Bump it whenever the world construction or a program variant changes
// behaviour, or stale cached results will replay for the old code.
const SourceVersion = "1"

// Principals. The consumer modules run as Administrator (euid 0); the
// attacker is an ordinary authenticated user.
const (
	AdminUID    = 0
	AttackerUID = 666
	UserUID     = 100
)

// Filesystem landmarks (UNIX-style paths standing in for the NT ones).
const (
	BootConfig  = "/etc/boot.cfg"           // the "security critical file"
	FontDir     = "/windows/fonts"          // legitimate font storage
	SystemDir   = "/windows/system32"       // trusted binaries
	ProfileDir  = "/profiles"               // per-user logon profiles
	AttackerBin = "/users/mallory/evil.exe" // attacker-controlled program
)

// The nine consumed unprotected keys (4 + 3 + 2).
var (
	FontCleanKeys = []string{
		`HKLM\Software\Fonts\Cleanup`,
		`HKLM\Software\Fonts\Temp`,
		`HKLM\Software\Fonts\Cache`,
		`HKLM\Software\Fonts\Preview`,
	}
	ScrSaveKeys = []string{
		`HKLM\Software\ScrSave\Main`,
		`HKLM\Software\ScrSave\Helper`,
		`HKLM\Software\ScrSave\Agent`,
	}
	UpdaterKeys = []string{
		`HKLM\Software\Updater\Target`,
		`HKLM\Software\Updater\Manifest`,
	}
	// LogonKey is protected: the logon vulnerability is in trusting the
	// *directory* the key names, not in the key's ACL.
	LogonKey = `HKLM\Software\Logon`
)

// UnconsumedKeyCount is the number of additional unprotected keys whose
// consumers the paper could not analyse ("we speculate that the same
// vulnerabilities exist for those 20 keys as well").
const UnconsumedKeyCount = 20

// World builds the NT machine: registry hives, the protected system
// files, the font store, user profiles, and the attacker's staging area.
// The machine image is identical for every module and argument list, so
// one memoized snapshot serves all of them; the variant enters through the
// launch description only.
func World(prog kernel.Program, args ...string) inject.Factory {
	return image.FactoryWith(func(l inject.Launch) inject.Launch {
		l.Prog = prog
		l.Args = append([]string{"module"}, args...)
		return l
	})
}

// image memoizes the variant-independent NT world; runs fork it
// copy-on-write (registry hives are deep-cloned per fork).
var image = inject.NewWorldImage(func() (*kernel.Kernel, inject.Launch) {
	{
		k := kernel.New()
		k.Users.Add(proc.User{Name: "admin", UID: AdminUID, GID: 0})
		k.Users.Add(proc.User{Name: "user", UID: UserUID, GID: UserUID})
		k.Users.Add(proc.User{Name: "mallory", UID: AttackerUID, GID: AttackerUID})

		must(k.FS.MkdirAll("/", "/etc", 0o755, 0, 0))
		must(k.FS.WriteFile(BootConfig, []byte("boot-loader-configuration v4.0\n"), 0o644, 0, 0))
		must(k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o644, 0, 0))
		must(k.FS.WriteFile("/etc/shadow", []byte("root:$1$NTSECRET$:1:\n"), 0o600, 0, 0))
		must(k.FS.MkdirAll("/", FontDir, 0o755, 0, 0))
		for _, f := range []string{"old.fon", "tmp1.fon", "cache.fon", "preview.fon"} {
			must(k.FS.WriteFile(FontDir+"/"+f, []byte("fontdata "+f+"\n"), 0o644, 0, 0))
		}
		must(k.FS.MkdirAll("/", SystemDir, 0o755, 0, 0))
		for _, b := range []string{"scrsave.exe", "scrhelper.exe", "scragent.exe", "userinit.exe"} {
			must(k.FS.WriteFile(SystemDir+"/"+b, []byte("MZ"), 0o755, 0, 0))
		}
		must(k.FS.WriteFile(SystemDir+"/kernel.dll", []byte("MZ kernel v1\n"), 0o644, 0, 0))
		must(k.FS.WriteFile(SystemDir+"/manifest.txt", []byte("installed: kernel v1\n"), 0o644, 0, 0))
		must(k.FS.MkdirAll("/", "/windows/updates", 0o755, 0, 0))
		must(k.FS.WriteFile("/windows/updates/kernel-v2.dll", []byte("MZ kernel v2\n"), 0o644, 0, 0))
		must(k.FS.MkdirAll("/", ProfileDir, 0o755, 0, 0))
		must(k.FS.WriteFile(ProfileDir+"/user.prof",
			[]byte("wallpaper=/windows/wall.bmp\nstartup="+SystemDir+"/userinit.exe\n"), 0o644, 0, 0))
		must(k.FS.MkdirAll("/", "/users/mallory", 0o755, AttackerUID, AttackerUID))
		must(k.FS.WriteFile(AttackerBin, []byte("MZ evil"), 0o777, AttackerUID, AttackerUID))
		must(k.FS.WriteFile("/users/mallory/evil.prof",
			[]byte("startup="+AttackerBin+"\n"), 0o644, AttackerUID, AttackerUID))
		must(k.FS.MkdirAll("/", "/tmp", 0o777, 0, 0))

		reg := registry.New()
		k.Reg = reg
		addKey := func(path, value string, acl registry.ACL) {
			if _, err := reg.CreateKey(path, acl); err != nil {
				panic(err)
			}
			if err := reg.SetString(path, "Path", value, registry.System); err != nil {
				panic(err)
			}
		}
		addKey(FontCleanKeys[0], FontDir+"/old.fon", registry.UnprotectedACL())
		addKey(FontCleanKeys[1], FontDir+"/tmp1.fon", registry.UnprotectedACL())
		addKey(FontCleanKeys[2], FontDir+"/cache.fon", registry.UnprotectedACL())
		addKey(FontCleanKeys[3], FontDir+"/preview.fon", registry.UnprotectedACL())
		addKey(ScrSaveKeys[0], SystemDir+"/scrsave.exe", registry.UnprotectedACL())
		addKey(ScrSaveKeys[1], SystemDir+"/scrhelper.exe", registry.UnprotectedACL())
		addKey(ScrSaveKeys[2], SystemDir+"/scragent.exe", registry.UnprotectedACL())
		addKey(UpdaterKeys[0], SystemDir+"/kernel.dll", registry.UnprotectedACL())
		addKey(UpdaterKeys[1], SystemDir+"/manifest.txt", registry.UnprotectedACL())
		// The protected logon key.
		addKey(LogonKey, ProfileDir, registry.DefaultACL())
		// The 20 unconsumed unprotected keys.
		for i := 0; i < UnconsumedKeyCount; i++ {
			addKey(vendorKey(i), "/windows/vendor", registry.UnprotectedACL())
		}

		return k, inject.Launch{
			Cred: proc.NewCred(AdminUID, 0), // administrators run the modules
			Env:  proc.NewEnv("PATH", SystemDir),
			Cwd:  "/",
		}
	}
})

func vendorKey(i int) string {
	return `HKLM\Software\Vendor` + string(rune('A'+i)) + `\Settings`
}

// maxPath mirrors the NT MAX_PATH validation the modules perform on
// registry values (so overlong-value perturbations are tolerated — the
// keys' danger is semantic, not a buffer issue).
const maxPath = 260

func regPath(p *kernel.Proc, site, key string) (string, bool) {
	v, err := p.RegGetString(site, key, "Path")
	if err != nil {
		p.Eprintf("module: cannot read %s: %v\n", key, err)
		return "", false
	}
	if len(v) == 0 || len(v) >= maxPath || !strings.HasPrefix(v, "/") {
		p.Eprintf("module: bad path in %s\n", key)
		return "", false
	}
	for i := 0; i < len(v); i++ {
		if v[i] < 0x20 || v[i] > 0x7e {
			p.Eprintf("module: malformed path in %s\n", key)
			return "", false
		}
	}
	return v, true
}

// FontClean is the Section 4.2 font module: for each cleanup key it
// deletes the file the key names — with no check that the file is a font.
// "when administrators run this module, they will actually delete the file
// specified by this registry key regardless of whether this file is a font
// file or a security critical file."
func FontClean(p *kernel.Proc) int {
	sites := []string{"cleanup", "temp", "cache", "preview"}
	for i, key := range FontCleanKeys {
		path, ok := regPath(p, "fontclean:regget-"+sites[i], key)
		if !ok {
			continue
		}
		if err := p.Unlink("fontclean:unlink-"+sites[i], path); err != nil {
			p.Eprintf("fontclean: %s: %v\n", path, err)
			continue
		}
		p.Printf("removed %s\n", path)
	}
	return 0
}

// FontCleanFixed refuses to delete anything outside the font store.
func FontCleanFixed(p *kernel.Proc) int {
	sites := []string{"cleanup", "temp", "cache", "preview"}
	for i, key := range FontCleanKeys {
		path, ok := regPath(p, "fontclean:regget-"+sites[i], key)
		if !ok {
			continue
		}
		if !strings.HasPrefix(path, FontDir+"/") || strings.Contains(path, "..") {
			p.Eprintf("fontclean: refusing path outside font store: %s\n", path)
			continue
		}
		if st, err := p.Lstat("fontclean:lstat-"+sites[i], path); err != nil || st.Symlink {
			p.Eprintf("fontclean: refusing symlink %s\n", path)
			continue
		}
		if err := p.Unlink("fontclean:unlink-"+sites[i], path); err != nil {
			continue
		}
		p.Printf("removed %s\n", path)
	}
	return 0
}

// ScrSave launches the screen-saver binaries the keys name, as the
// privileged desktop session.
func ScrSave(p *kernel.Proc) int {
	sites := []string{"main", "helper", "agent"}
	for i, key := range ScrSaveKeys {
		path, ok := regPath(p, "scrsave:regget-"+sites[i], key)
		if !ok {
			continue
		}
		if _, err := p.Exec("scrsave:exec-"+sites[i], path); err != nil {
			p.Eprintf("scrsave: %s: %v\n", path, err)
		}
	}
	return 0
}

// ScrSaveFixed verifies the binary is rooted in the system directory and
// not writable by unprivileged users before launching it.
func ScrSaveFixed(p *kernel.Proc) int {
	sites := []string{"main", "helper", "agent"}
	for i, key := range ScrSaveKeys {
		path, ok := regPath(p, "scrsave:regget-"+sites[i], key)
		if !ok {
			continue
		}
		if !strings.HasPrefix(path, SystemDir+"/") {
			p.Eprintf("scrsave: untrusted binary %s\n", path)
			continue
		}
		// Ownership check atomic with the exec (no stat-exec race).
		if _, err := p.ExecTrusted("scrsave:exec-"+sites[i], path, 0); err != nil {
			p.Eprintf("scrsave: %s: %v\n", path, err)
		}
	}
	return 0
}

// Updater installs the staged update over the file one key names and
// rewrites the manifest file the other names.
func Updater(p *kernel.Proc) int {
	update, err := p.ReadFile("updater:src", "/windows/updates/kernel-v2.dll")
	if err != nil {
		p.Eprintf("updater: no staged update: %v\n", err)
		return 1
	}
	target, ok := regPath(p, "updater:regget-target", UpdaterKeys[0])
	if ok {
		if f, err := p.Create("updater:write-target", target, 0o644); err == nil {
			if _, err := p.Write("updater:write-target-data", f, update); err == nil {
				p.Printf("installed update to %s\n", target)
			}
			p.Close(f)
		} else {
			p.Eprintf("updater: %s: %v\n", target, err)
		}
	}
	manifest, ok := regPath(p, "updater:regget-manifest", UpdaterKeys[1])
	if ok {
		if f, err := p.Create("updater:write-manifest", manifest, 0o644); err == nil {
			_, _ = p.Write("updater:write-manifest-data", f, []byte("installed: kernel v2\n"))
			p.Close(f)
		}
	}
	return 0
}

// UpdaterFixed writes only inside the system directory.
func UpdaterFixed(p *kernel.Proc) int {
	update, err := p.ReadFile("updater:src", "/windows/updates/kernel-v2.dll")
	if err != nil {
		return 1
	}
	install := func(getSite, key, writeSite string, data []byte) {
		path, ok := regPath(p, getSite, key)
		if !ok {
			return
		}
		if !strings.HasPrefix(path, SystemDir+"/") || strings.Contains(path, "..") {
			p.Eprintf("updater: refusing path outside system dir: %s\n", path)
			return
		}
		if st, err := p.Lstat("updater:lstat-"+key, path); err == nil && st.Symlink {
			p.Eprintf("updater: refusing symlink %s\n", path)
			return
		}
		if f, err := p.Create(writeSite, path, 0o644); err == nil {
			_, _ = p.Write(writeSite+"-data", f, data)
			p.Close(f)
		}
	}
	install("updater:regget-target", UpdaterKeys[0], "updater:write-target", update)
	install("updater:regget-manifest", UpdaterKeys[1], "updater:write-manifest", []byte("installed: kernel v2\n"))
	return 0
}

// Logond is the logon module: it finds the user's profile in the
// directory named by the (protected) logon key and executes the profile's
// startup program — without checking the trustability of the directory or
// file. "whenever a user logons, the logon module will go to the untrusted
// directory, and grab a specified profile for you."
func Logond(p *kernel.Proc) int {
	user := p.Arg("logond:arg-user", 1)
	if user == "" {
		return 2
	}
	dir, err := p.RegGetString("logond:regget-profiledir", LogonKey, "Path")
	if err != nil {
		p.Eprintf("logond: no profile directory configured\n")
		return 1
	}
	pf, err := p.Open("logond:open-profile", dir+"/"+user+".prof", kernel.ORead, 0)
	if err != nil {
		p.Eprintf("logond: no profile for %s\n", user)
		return 1
	}
	data, err := p.ReadAll("logond:read-profile", pf)
	p.Close(pf)
	if err != nil {
		return 1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if startup, found := strings.CutPrefix(line, "startup="); found {
			if _, err := p.Exec("logond:exec-startup", startup); err != nil {
				p.Eprintf("logond: startup failed: %v\n", err)
			}
		}
	}
	p.Printf("logon complete for %s\n", user)
	return 0
}

// LogondFixed validates the profile chain: the directory and profile must
// be owned by the system and not writable by others, and the startup
// program must live in the system directory.
func LogondFixed(p *kernel.Proc) int {
	user := p.Arg("logond:arg-user", 1)
	if user == "" {
		return 2
	}
	dir, err := p.RegGetString("logond:regget-profiledir", LogonKey, "Path")
	if err != nil {
		return 1
	}
	if st, err := p.Lstat("logond:lstat-dir", dir); err != nil || st.Symlink || st.UID != 0 || st.Mode&0o022 != 0 {
		p.Eprintf("logond: profile directory untrusted\n")
		return 1
	}
	profPath := dir + "/" + user + ".prof"
	if st, err := p.Lstat("logond:lstat-profile", profPath); err != nil || st.Symlink || st.UID != 0 || st.Mode&0o022 != 0 {
		p.Eprintf("logond: profile untrusted\n")
		return 1
	}
	pf, err := p.Open("logond:open-profile", profPath, kernel.ORead, 0)
	if err != nil {
		return 1
	}
	data, err := p.ReadAll("logond:read-profile", pf)
	p.Close(pf)
	if err != nil {
		return 1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if startup, found := strings.CutPrefix(line, "startup="); found {
			if !strings.HasPrefix(startup, SystemDir+"/") {
				p.Eprintf("logond: refusing startup outside system dir: %s\n", startup)
				continue
			}
			// Ownership check atomic with the exec (no stat-exec race).
			if _, err := p.ExecTrusted("logond:exec-startup", startup, 0); err != nil {
				p.Eprintf("logond: untrusted startup %s: %v\n", startup, err)
			}
		}
	}
	p.Printf("logon complete for %s\n", user)
	return 0
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
