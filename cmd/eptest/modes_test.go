package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// modeRows is the flag table eptest documents: each mode flag and the
// flags that mode takes. It is written out here, not read from the
// program, so the test pins the table rather than echoing it.
var modeRows = map[string][]string{
	"list":        nil,
	"campaign":    {"fixed", "per-point", "v", "j"},
	"all":         {"matrix", "filter", "j", "v", "cache", "shard", "coord-url", "worker", "auth-token", "trace", "metrics-json", "pprof", "findings"},
	"merge":       {"matrix", "findings"},
	"serve-coord": {"cache", "matrix", "filter", "lease", "campaign-retention", "auth-token", "pprof"},
	"diff":        {"diff-fail-on"},
}

// flagArgs returns one valid "-name=value" argument for every eptest
// flag. Paths point into dir, so a refused run that touched the disk
// would leave something there; -lease and -campaign-retention carry
// their default values.
func flagArgs(dir string) map[string]string {
	in := func(name string) string { return filepath.Join(dir, name) }
	return map[string]string{
		"list":               "-list=true",
		"campaign":           "-campaign=turnin",
		"all":                "-all=true",
		"j":                  "-j=4",
		"fixed":              "-fixed=true",
		"per-point":          "-per-point=true",
		"v":                  "-v=true",
		"cache":              "-cache=" + in("store"),
		"shard":              "-shard=1/2",
		"matrix":             "-matrix=true",
		"filter":             "-filter=lpr*",
		"merge":              "-merge=" + in("merged"),
		"serve-coord":        "-serve-coord=127.0.0.1:0",
		"coord-url":          "-coord-url=http://127.0.0.1:1",
		"worker":             "-worker=w",
		"auth-token":         "-auth-token=t",
		"lease":              "-lease=60s",
		"campaign-retention": "-campaign-retention=24h",
		"trace":              "-trace=" + in("trace.json"),
		"metrics-json":       "-metrics-json=" + in("metrics.json"),
		"pprof":              "-pprof=127.0.0.1:0",
		"findings":           "-findings=" + in("findings.json"),
		"diff":               "-diff=" + in("old.json"),
		"diff-fail-on":       "-diff-fail-on=new",
	}
}

// checkRefused runs eptest on args and requires a usage error that
// leaves no trace: exit 2, every want on stderr, nothing on stdout, and
// dir still empty.
func checkRefused(t *testing.T, dir string, args []string, want ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 2 {
		t.Errorf("%v: exit = %d, want 2 (stderr %q)", args, code, errb.String())
	}
	for _, w := range want {
		if !strings.Contains(errb.String(), w) {
			t.Errorf("%v: stderr %q does not name %q", args, errb.String(), w)
		}
	}
	if out.Len() != 0 {
		t.Errorf("%v: refused run printed %q", args, out.String())
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("%v: refused run left %v behind (%v)", args, ents, err)
	}
}

// TestModeRefusesOtherFlags passes each mode every flag outside its
// row: each is refused with exit 2, naming the flag and the mode,
// before anything is printed or written.
func TestModeRefusesOtherFlags(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	flags := flagArgs(dir)
	if len(flags) != 24 {
		t.Fatalf("flagArgs has %d flags, want eptest's 24", len(flags))
	}
	for mode, row := range modeRows {
		modeArgs := []string{flags[mode]}
		if mode == "diff" {
			modeArgs = append(modeArgs, filepath.Join(dir, "new.json"))
		}
		for name, arg := range flags {
			if name == mode || slices.Contains(row, name) {
				continue
			}
			args := append([]string{arg}, modeArgs...)
			checkRefused(t, dir, args, "-"+name, "-"+mode)
		}
	}
}

// TestModeRefusals pins named refusals: combinations that were once
// accepted with a flag silently ignored, a second mode flag, a flag set
// to its default value, a malformed -shard and a negative
// -campaign-retention, which must be refused before the trace file or
// the store is created; and three failed runs, a merge of a store that
// does not exist, a worker whose coordinator is unreachable and a
// coordinator whose address is taken, which must create nothing either.
func TestModeRefusals(t *testing.T) {
	t.Parallel()
	// busy is an address already bound, so a -serve-coord run that gets
	// past its refusals exits on the bind instead of serving.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { taken.Close() })
	busy := taken.Addr().String()
	cases := map[string]struct {
		args func(dir string) []string
		want []string
	}{
		"list with suite flags": {
			func(d string) []string {
				return []string{"-list", "-matrix", "-j", "4", "-cache", d + "/D", "-shard", "1/2"}
			},
			[]string{"does not apply to -list"},
		},
		"two modes": {
			func(string) []string { return []string{"-all", "-campaign", "turnin", "-fixed", "-per-point"} },
			[]string{"-all does not apply to -campaign"},
		},
		"merge with run flags": {
			func(d string) []string { return []string{"-merge", d + "/D", "-j", "4", "-v"} },
			[]string{"-j does not apply to -merge"},
		},
		"lease at its default": {
			func(string) []string { return []string{"-campaign", "turnin", "-lease", "60s"} },
			[]string{"-lease does not apply to -campaign"},
		},
		"retention at its default": {
			func(string) []string { return []string{"-campaign", "turnin", "-campaign-retention", "24h"} },
			[]string{"-campaign-retention does not apply to -campaign"},
		},
		"malformed shard": {
			func(d string) []string {
				return []string{"-all", "-filter", "lpr/vulnerable", "-cache", d + "/D", "-trace", d + "/T.json", "-shard", "bogus"}
			},
			[]string{`malformed shard "bogus"`},
		},
		"empty shard": {
			func(d string) []string {
				return []string{"-all", "-filter", "lpr/vulnerable", "-cache", d + "/D", "-trace", d + "/T.json", "-shard", "2/2"}
			},
			[]string{"selects zero jobs"},
		},
		"empty coordinator catalog": {
			func(d string) []string {
				return []string{"-serve-coord", "127.0.0.1:0", "-cache", d + "/D", "-filter", "no-such-app*"}
			},
			[]string{"selects zero jobs"},
		},
		"negative campaign retention": {
			func(d string) []string {
				return []string{"-serve-coord", busy, "-cache", d + "/D", "-campaign-retention", "-1h"}
			},
			[]string{"-campaign-retention -1h0m0s is not a retention period"},
		},
		"coordinator address in use": {
			func(d string) []string { return []string{"-serve-coord", busy, "-cache", d + "/D"} },
			[]string{"-serve-coord " + busy, "address already in use"},
		},
		"merge of a missing store": {
			func(d string) []string { return []string{"-merge", d + "/NOPE"} },
			[]string{"no shard artifacts"},
		},
		"unreachable coordinator": {
			func(d string) []string {
				return []string{"-all", "-filter", "lpr/vulnerable", "-coord-url", "http://127.0.0.1:1", "-trace", d + "/T.json"}
			},
			[]string{"connection refused"},
		},
		"flag after a positional argument": {
			func(string) []string { return []string{"-all", "extra", "-j", "4"} },
			[]string{`-all takes no positional argument; got "extra"`},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			checkRefused(t, dir, tc.args(dir), tc.want...)
		})
	}
}
