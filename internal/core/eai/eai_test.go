package eai

import (
	"strings"
	"testing"

	"repro/internal/interpose"
	"repro/internal/sim/kernel"
	"repro/internal/sim/netsim"
	"repro/internal/sim/proc"
	"repro/internal/sim/registry"
	"repro/internal/sim/vfs"
)

func TestEnumStrings(t *testing.T) {
	t.Parallel()
	if ClassIndirect.String() != "indirect" || ClassDirect.String() != "direct" {
		t.Error("Class strings")
	}
	if OriginUserInput.String() != "user-input" || OriginProcessInput.String() != "process-input" {
		t.Error("Origin strings")
	}
	if EntityFileSystem.String() != "file-system" || EntityRegistry.String() != "registry" {
		t.Error("Entity strings")
	}
	if AttrExistence.String() != "existence" || AttrWorkingDirectory.String() != "working-directory" {
		t.Error("Attr strings")
	}
	if SemFileName.String() != "file-name" || SemDNSReply.String() != "dns-reply" {
		t.Error("Semantic strings")
	}
}

func TestEntityForKind(t *testing.T) {
	t.Parallel()
	tests := []struct {
		k    interpose.ObjectKind
		want Entity
	}{
		{interpose.KindFile, EntityFileSystem},
		{interpose.KindDir, EntityFileSystem},
		{interpose.KindNetwork, EntityNetwork},
		{interpose.KindProcess, EntityProcess},
		{interpose.KindRegistry, EntityRegistry},
		{interpose.KindArg, 0},
		{interpose.KindEnvVar, 0},
	}
	for _, tt := range tests {
		if got := EntityForKind(tt.k); got != tt.want {
			t.Errorf("EntityForKind(%v) = %v, want %v", tt.k, got, tt.want)
		}
	}
}

func TestInferSemantic(t *testing.T) {
	t.Parallel()
	tests := []struct {
		op   interpose.Op
		path string
		want Semantic
	}{
		{interpose.OpGetenv, "PATH", SemPathList},
		{interpose.OpGetenv, "LD_LIBRARY_PATH", SemPathList},
		{interpose.OpGetenv, "UMASK", SemPermMask},
		{interpose.OpGetenv, "HOME", SemFileName},
		{interpose.OpGetenv, "RANDOM_VAR", SemRaw},
		{interpose.OpDNS, "host", SemDNSReply},
		{interpose.OpRecv, "a:1", SemPacket},
		{interpose.OpMsgRecv, "box", SemProcMessage},
		{interpose.OpReadlink, "/x", SemFileName},
		{interpose.OpRead, "/x", SemRaw},
	}
	for _, tt := range tests {
		if got := InferSemantic(tt.op, tt.path); got != tt.want {
			t.Errorf("InferSemantic(%s, %q) = %v, want %v", tt.op, tt.path, got, tt.want)
		}
	}
}

// TestTable5Shape pins the catalog to the published Table 5: every
// semantic row exists and carries the paper's perturbations.
func TestTable5Shape(t *testing.T) {
	t.Parallel()
	wantCounts := map[Semantic]int{
		SemFileName:      5,
		SemCommand:       7,
		SemPathList:      5,
		SemPermMask:      1,
		SemFileExtension: 2,
		SemIPAddress:     2,
		SemPacket:        2,
		SemHostName:      2,
		SemDNSReply:      2,
		SemProcMessage:   2,
		SemRaw:           2,
	}
	for sem, want := range wantCounts {
		faults := CatalogIndirect(sem)
		if len(faults) != want {
			t.Errorf("CatalogIndirect(%s) has %d faults, want %d", sem, len(faults), want)
		}
		seen := map[string]bool{}
		for _, f := range faults {
			if f.Sem != sem {
				t.Errorf("%s carries wrong semantic %v", f.ID, f.Sem)
			}
			if f.Mutate == nil {
				t.Errorf("%s has no mutator", f.ID)
			}
			if f.Class() != ClassIndirect {
				t.Errorf("%s class = %v", f.ID, f.Class())
			}
			if seen[f.ID] {
				t.Errorf("duplicate fault id %s", f.ID)
			}
			seen[f.ID] = true
		}
	}
	if got := len(allIndirect()); got != 32 {
		t.Errorf("Table 5 has %d faults, want 32", got)
	}
}

func TestIndirectMutators(t *testing.T) {
	t.Parallel()
	byName := func(sem Semantic, name string) IndirectFault {
		for _, f := range CatalogIndirect(sem) {
			if f.Name == name {
				return f
			}
		}
		t.Fatalf("fault %s/%s not found", sem, name)
		return IndirectFault{}
	}
	tests := []struct {
		sem   Semantic
		name  string
		in    string
		check func(out string) bool
	}{
		{SemFileName, "change-length", "hw1.c", func(o string) bool { return len(o) > 4000 && strings.HasPrefix(o, "hw1.c") }},
		{SemFileName, "use-relative-path", "/etc/passwd", func(o string) bool { return o == "etc/passwd" }},
		{SemFileName, "use-relative-path", "hw1.c", func(o string) bool { return o == "./hw1.c" }},
		{SemFileName, "use-absolute-path", "hw1.c", func(o string) bool { return o == "/hw1.c" }},
		{SemFileName, "use-absolute-path", "/abs", func(o string) bool { return o == "/abs" }},
		{SemFileName, "insert-dotdot", ".login", func(o string) bool { return o == "../.login" }},
		{SemFileName, "insert-slash", "x", func(o string) bool { return o == "/x" }},
		{SemCommand, "insert-semicolon", "lpr", func(o string) bool { return o == "lpr; sh" }},
		{SemCommand, "insert-pipe", "lpr", func(o string) bool { return o == "lpr| sh" }},
		{SemCommand, "insert-newline", "lpr", func(o string) bool { return o == "lpr\nsh" }},
		{SemPathList, "rearrange-order", "/a:/b:/c", func(o string) bool { return o == "/c:/b:/a" }},
		{SemPathList, "insert-untrusted-path", "/usr/bin", func(o string) bool { return strings.HasPrefix(o, "/tmp/attacker/bin:") }},
		{SemPermMask, "zero-mask", "022", func(o string) bool { return o == "0" }},
		{SemFileExtension, "change-extension", "font.fon", func(o string) bool { return o == "font.exe" }},
		{SemDNSReply, "bad-format", "10.0.0.5", func(o string) bool { return strings.Contains(o, "10.0.0.5") && o != "10.0.0.5" }},
	}
	for _, tt := range tests {
		f := byName(tt.sem, tt.name)
		out := string(f.Mutate([]byte(tt.in)))
		if !tt.check(out) {
			t.Errorf("%s(%q) = %q", f.ID, tt.in, out)
		}
	}
}

func TestMutatorsDoNotAliasInput(t *testing.T) {
	t.Parallel()
	for _, f := range allIndirect() {
		in := []byte("sample-input-value")
		orig := string(in)
		_ = f.Mutate(in)
		if string(in) != orig {
			t.Errorf("%s mutated its input in place", f.ID)
		}
	}
}

// --- direct fault appliers ---

func newCtxWorld(t *testing.T) (*kernel.Kernel, Config) {
	t.Helper()
	k := kernel.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(k.FS.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(k.FS.MkdirAll("/", "/tmp", 0o777, 0, 0))
	must(k.FS.MkdirAll("/", "/u/course/submit", 0o700, 200, 200))
	must(k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o644, 0, 0))
	must(k.FS.WriteFile("/etc/shadow", []byte("root:HASH\n"), 0o600, 0, 0))
	must(k.FS.WriteFile("/u/course/Projlist", []byte("proj1\nproj2\n"), 0o644, 200, 200))
	cfg := Config{Attacker: proc.NewCred(100, 100)}.WithDefaults()
	return k, cfg
}

func directByName(t *testing.T, e Entity, name string) DirectFault {
	t.Helper()
	for _, f := range CatalogDirect(e) {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("direct fault %v/%s not found", e, name)
	return DirectFault{}
}

func fileCtx(k *kernel.Kernel, cfg Config, op interpose.Op, path string) *Ctx {
	return &Ctx{
		Kern: k,
		Call: &interpose.Call{Op: op, Kind: interpose.KindFile, Path: path},
		Cwd:  "/",
		Cfg:  cfg,
	}
}

func TestFileExistenceFault(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	f := directByName(t, EntityFileSystem, "existence")
	// Existing file is deleted.
	ctx := fileCtx(k, cfg, interpose.OpOpen, "/u/course/Projlist")
	if !f.Applies(ctx) {
		t.Fatal("existence should always apply")
	}
	if err := f.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	if k.FS.Exists("/u/course/Projlist") {
		t.Error("existing file not deleted")
	}
	// Missing file is made to exist, attacker-owned.
	ctx2 := fileCtx(k, cfg, interpose.OpCreate, "/tmp/spool/cfa001")
	if err := f.Apply(ctx2); err != nil {
		t.Fatal(err)
	}
	n, err := k.FS.Lookup("/", "/tmp/spool/cfa001")
	if err != nil {
		t.Fatal(err)
	}
	if n.UID != 100 {
		t.Errorf("planted file uid = %d, want attacker 100", n.UID)
	}
}

func TestFileOwnershipFault(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	f := directByName(t, EntityFileSystem, "ownership")
	// Non-attacker file becomes attacker-owned.
	ctx := fileCtx(k, cfg, interpose.OpOpen, "/u/course/Projlist")
	if err := f.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	n, _ := k.FS.Lookup("/", "/u/course/Projlist")
	if n.UID != 100 {
		t.Errorf("uid = %d, want 100", n.UID)
	}
	// Attacker-owned file flips to root.
	if err := f.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	if n.UID != 0 {
		t.Errorf("uid after second apply = %d, want 0", n.UID)
	}
	// Missing file: created root-owned (hostile pre-existing owner).
	ctx2 := fileCtx(k, cfg, interpose.OpCreate, "/tmp/newfile")
	if err := f.Apply(ctx2); err != nil {
		t.Fatal(err)
	}
	n2, _ := k.FS.Lookup("/", "/tmp/newfile")
	if n2.UID != 0 || n2.Mode != 0o600 {
		t.Errorf("planted = uid %d mode %o", n2.UID, uint16(n2.Mode))
	}
}

func TestFilePermissionFault(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	f := directByName(t, EntityFileSystem, "permission")
	// Existing file restricted to root — the Projlist leak setup.
	ctx := fileCtx(k, cfg, interpose.OpOpen, "/u/course/Projlist")
	if err := f.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	n, _ := k.FS.Lookup("/", "/u/course/Projlist")
	if n.UID != 0 || n.Mode != 0o600 {
		t.Errorf("restricted = uid %d mode %o", n.UID, uint16(n.Mode))
	}
	if vfs.ReadableBy(n, 100, 100) {
		t.Error("attacker can still read after restriction")
	}
	// Directory restricted keeps search-ability for root only.
	ctxd := fileCtx(k, cfg, interpose.OpStat, "/u/course/submit")
	if err := f.Apply(ctxd); err != nil {
		t.Fatal(err)
	}
	d, _ := k.FS.Lookup("/", "/u/course/submit")
	if d.Mode != 0o700 {
		t.Errorf("dir mode = %o", uint16(d.Mode))
	}
}

func TestFileSymlinkFault(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	f := directByName(t, EntityFileSystem, "symbolic-link")
	// Read context: regular file becomes a link to the read target.
	ctx := fileCtx(k, cfg, interpose.OpOpen, "/u/course/Projlist")
	ctx.Call.Flags = kernel.ORead
	if err := f.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := k.FS.LookupNoFollow("/", "/u/course/Projlist")
	if err != nil {
		t.Fatal(err)
	}
	if !ln.IsSymlink() || ln.Target != "/etc/shadow" {
		t.Errorf("read-context link = %+v", ln)
	}
	// Write context on a missing file: link to the write target — the lpr
	// password-file attack.
	ctx2 := fileCtx(k, cfg, interpose.OpCreate, "/tmp/spool-cf")
	if err := f.Apply(ctx2); err != nil {
		t.Fatal(err)
	}
	ln2, err := k.FS.LookupNoFollow("/", "/tmp/spool-cf")
	if err != nil {
		t.Fatal(err)
	}
	if ln2.Target != "/etc/passwd" {
		t.Errorf("write-context target = %q", ln2.Target)
	}
	// Directory object: link to the protected directory.
	ctx3 := fileCtx(k, cfg, interpose.OpStat, "/u/course/submit")
	ctx3.Call.Kind = interpose.KindDir
	if err := f.Apply(ctx3); err != nil {
		t.Fatal(err)
	}
	ln3, err := k.FS.LookupNoFollow("/", "/u/course/submit")
	if err != nil {
		t.Fatal(err)
	}
	if ln3.Target != "/etc" {
		t.Errorf("dir target = %q", ln3.Target)
	}
	// Existing symlink is retargeted.
	if err := f.Apply(ctx3); err != nil {
		t.Fatal(err)
	}
}

func TestFileContentNameFaults(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	content := directByName(t, EntityFileSystem, "content-invariance")
	name := directByName(t, EntityFileSystem, "name-invariance")

	ctx := fileCtx(k, cfg, interpose.OpOpen, "/u/course/Projlist")
	if !content.Applies(ctx) || !name.Applies(ctx) {
		t.Fatal("content/name must apply to existing regular file")
	}
	if err := content.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	data, _ := k.FS.ReadFile("/u/course/Projlist")
	if string(data) != string(cfg.AttackerContent) {
		t.Errorf("content = %q", data)
	}
	if err := name.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	if k.FS.Exists("/u/course/Projlist") {
		t.Error("name fault left original path")
	}
	if !k.FS.Exists("/u/course/Projlist.moved") {
		t.Error("renamed file missing")
	}
	// Neither applies to a missing file — the lpr walk-through's
	// "attributes 5 and 6 are not applicable" judgement.
	ctxMissing := fileCtx(k, cfg, interpose.OpCreate, "/tmp/fresh")
	if content.Applies(ctxMissing) || name.Applies(ctxMissing) {
		t.Error("content/name must not apply to missing file")
	}
}

func TestWorkingDirectoryFault(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	f := directByName(t, EntityFileSystem, "working-directory")
	var cwd string
	ctx := &Ctx{
		Kern:   k,
		Call:   &interpose.Call{Op: interpose.OpOpen, Kind: interpose.KindFile, Path: "relative.txt"},
		Cwd:    "/tmp",
		SetCwd: func(d string) { cwd = d },
		Cfg:    cfg,
	}
	if !f.Applies(ctx) {
		t.Fatal("workdir must apply to relative path")
	}
	if err := f.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	if cwd != "/tmp/elsewhere" {
		t.Errorf("cwd = %q", cwd)
	}
	// Absolute path: not applicable.
	ctx.Call.Path = "/absolute.txt"
	if f.Applies(ctx) {
		t.Error("workdir must not apply to absolute path")
	}
	// No SetCwd: not applicable.
	ctx.Call.Path = "rel"
	ctx.SetCwd = nil
	if f.Applies(ctx) {
		t.Error("workdir must not apply without SetCwd")
	}
}

func TestLprWalkthroughApplicability(t *testing.T) {
	t.Parallel()
	// Section 3.4: at lpr's create of a fresh absolute-path spool file,
	// exactly existence, ownership, permission, and symbolic-link apply.
	k, cfg := newCtxWorld(t)
	ctx := fileCtx(k, cfg, interpose.OpCreate, "/tmp/spool/cfa001")
	ctx.Call.Flags = kernel.OWrite | kernel.OCreate | kernel.OTrunc
	var applicable []string
	for _, f := range CatalogDirect(EntityFileSystem) {
		if f.Applies(ctx) {
			applicable = append(applicable, f.Name)
		}
	}
	want := []string{"existence", "ownership", "permission", "symbolic-link"}
	if len(applicable) != len(want) {
		t.Fatalf("applicable = %v, want %v", applicable, want)
	}
	for i := range want {
		if applicable[i] != want[i] {
			t.Fatalf("applicable = %v, want %v", applicable, want)
		}
	}
}

func TestNetworkFaults(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	k.Net = netsim.New()
	k.Net.AddService(&netsim.Service{
		Addr: "10.0.0.5:21", Host: "ftp", Available: true, Trusted: true,
		Script: []netsim.Message{
			{From: "ftp", Data: []byte("220 ready"), Authentic: true},
			{From: "ftp", Data: []byte("226 done"), Authentic: true},
		},
		Steps: []string{"USER", "RETR"},
	})
	netCtx := func() *Ctx {
		return &Ctx{
			Kern: k,
			Call: &interpose.Call{Op: interpose.OpConnect, Kind: interpose.KindNetwork, Path: "10.0.0.5:21"},
			Cwd:  "/",
			Cfg:  cfg,
		}
	}

	auth := directByName(t, EntityNetwork, "message-authenticity")
	if !auth.Applies(netCtx()) {
		t.Fatal("authenticity should apply to live service")
	}
	if err := auth.Apply(netCtx()); err != nil {
		t.Fatal(err)
	}
	svc := k.Net.Service("10.0.0.5:21")
	if svc.Script[0].Authentic || svc.Script[0].From != "evil.example" {
		t.Errorf("script after authenticity fault = %+v", svc.Script[0])
	}

	protoF := directByName(t, EntityNetwork, "protocol")
	if err := protoF.Apply(netCtx()); err != nil {
		t.Fatal(err)
	}
	if string(svc.Script[0].Data) != "226 done" {
		t.Error("protocol fault did not reorder script")
	}
	if len(svc.Steps) != 1 {
		t.Errorf("steps = %v", svc.Steps)
	}

	if err := directByName(t, EntityNetwork, "socket-share").Apply(netCtx()); err != nil {
		t.Fatal(err)
	}
	if svc.SharedWith != "attacker-process" {
		t.Error("socket-share fault missed")
	}

	if err := directByName(t, EntityNetwork, "service-availability").Apply(netCtx()); err != nil {
		t.Fatal(err)
	}
	if svc.Available {
		t.Error("service still available")
	}

	if err := directByName(t, EntityNetwork, "entity-trustability").Apply(netCtx()); err != nil {
		t.Fatal(err)
	}
	if svc.Trusted || svc.Host != "evil.example" {
		t.Errorf("trustability fault missed: %+v", svc)
	}

	// No such service: not applicable.
	badCtx := netCtx()
	badCtx.Call.Path = "1.2.3.4:99"
	if auth.Applies(badCtx) {
		t.Error("applies to missing service")
	}
}

func TestProcessFaults(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	k.PostMessage("spooler", []byte("legit job"))
	procCtx := func() *Ctx {
		return &Ctx{
			Kern: k,
			Call: &interpose.Call{Op: interpose.OpMsgRecv, Kind: interpose.KindProcess, Path: "spooler"},
			Cwd:  "/",
			Cfg:  cfg,
		}
	}
	forge := directByName(t, EntityProcess, "message-authenticity")
	if !forge.Applies(procCtx()) {
		t.Fatal("process fault should apply")
	}
	if err := forge.Apply(procCtx()); err != nil {
		t.Fatal(err)
	}
	msgs := k.PeekMailbox("spooler")
	if len(msgs) != 1 || !strings.HasPrefix(string(msgs[0]), "FORGED:") {
		t.Errorf("mailbox after forge = %q", msgs)
	}

	if err := directByName(t, EntityProcess, "service-availability").Apply(procCtx()); err != nil {
		t.Fatal(err)
	}
	if len(k.PeekMailbox("spooler")) != 0 {
		t.Error("availability fault did not drain mailbox")
	}

	if err := directByName(t, EntityProcess, "process-trustability").Apply(procCtx()); err != nil {
		t.Fatal(err)
	}
	if len(k.PeekMailbox("spooler")) != 1 {
		t.Error("trustability fault did not replace message")
	}
}

func TestRegistryFaults(t *testing.T) {
	t.Parallel()
	k, cfg := newCtxWorld(t)
	k.Reg = registry.New()
	if _, err := k.Reg.CreateKey(`HKLM\Software\Fonts\Cleanup`, registry.UnprotectedACL()); err != nil {
		t.Fatal(err)
	}
	if err := k.Reg.SetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", "/fonts/old.fon", registry.System); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Reg.CreateKey(`HKLM\Software\Logon`, registry.DefaultACL()); err != nil {
		t.Fatal(err)
	}
	if err := k.Reg.SetString(`HKLM\Software\Logon`, "ProfileDir", "/profiles", registry.System); err != nil {
		t.Fatal(err)
	}
	regCtx := func(key, val string) *Ctx {
		return &Ctx{
			Kern: k,
			Call: &interpose.Call{Op: interpose.OpRegGet, Kind: interpose.KindRegistry, Path: key, Path2: val},
			Cwd:  "/",
			Cfg:  cfg,
		}
	}
	content := directByName(t, EntityRegistry, "value-content")
	// Applies only to unprotected keys.
	if !content.Applies(regCtx(`HKLM\Software\Fonts\Cleanup`, "FontFile")) {
		t.Error("value-content should apply to unprotected key")
	}
	if content.Applies(regCtx(`HKLM\Software\Logon`, "ProfileDir")) {
		t.Error("value-content must not apply to protected key")
	}
	if err := content.Apply(regCtx(`HKLM\Software\Fonts\Cleanup`, "FontFile")); err != nil {
		t.Fatal(err)
	}
	got, err := k.Reg.GetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", registry.Everyone)
	if err != nil || got != "/etc/passwd" {
		t.Errorf("value after fault = %q, %v", got, err)
	}
	// value-delete requires Everyone delete rights, which UnprotectedACL
	// does not grant.
	del := directByName(t, EntityRegistry, "value-delete")
	if del.Applies(regCtx(`HKLM\Software\Fonts\Cleanup`, "FontFile")) {
		t.Error("value-delete must not apply without Everyone delete right")
	}
	wide := registry.ACL{
		registry.System:   registry.RightRead | registry.RightWrite | registry.RightDelete,
		registry.Everyone: registry.RightRead | registry.RightWrite | registry.RightDelete,
	}
	if err := k.Reg.SetACL(`HKLM\Software\Fonts\Cleanup`, wide); err != nil {
		t.Fatal(err)
	}
	if !del.Applies(regCtx(`HKLM\Software\Fonts\Cleanup`, "FontFile")) {
		t.Error("value-delete should apply with Everyone delete right")
	}
	if err := del.Apply(regCtx(`HKLM\Software\Fonts\Cleanup`, "FontFile")); err != nil {
		t.Fatal(err)
	}
}

func TestTable6Shape(t *testing.T) {
	t.Parallel()
	wantCounts := map[Entity]int{
		EntityFileSystem: 7,
		EntityNetwork:    5,
		EntityProcess:    3,
		EntityRegistry:   2,
	}
	for e, want := range wantCounts {
		faults := CatalogDirect(e)
		if len(faults) != want {
			t.Errorf("CatalogDirect(%s) = %d faults, want %d", e, len(faults), want)
		}
		for _, f := range faults {
			if f.Entity != e {
				t.Errorf("%s entity = %v", f.ID, f.Entity)
			}
			if f.Apply == nil || f.Applies == nil {
				t.Errorf("%s missing applier", f.ID)
			}
			if f.Class() != ClassDirect {
				t.Errorf("%s class = %v", f.ID, f.Class())
			}
		}
	}
	n := 0
	for _, e := range AllEntities() {
		n += len(CatalogDirect(e))
	}
	if n != 17 {
		t.Errorf("Table 6 has %d faults, want 17", n)
	}
}

func TestConfigDefaults(t *testing.T) {
	t.Parallel()
	c := Config{}.WithDefaults()
	if c.ReadTarget != "/etc/shadow" || c.WriteTarget != "/etc/passwd" ||
		c.DirTarget != "/etc" || c.AttackerDir != "/tmp" ||
		len(c.AttackerContent) == 0 || c.EvilHost == "" {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{ReadTarget: "/secret"}.WithDefaults()
	if c2.ReadTarget != "/secret" {
		t.Error("explicit ReadTarget overwritten")
	}
}

// allIndirect lists the full Table 5 catalog across every semantic.
func allIndirect() []IndirectFault {
	var out []IndirectFault
	for _, s := range AllSemantics() {
		out = append(out, CatalogIndirect(s)...)
	}
	return out
}
