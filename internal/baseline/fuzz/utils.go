package fuzz

import (
	"strings"

	"repro/internal/core/inject"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
)

// The utility suite mirrors the Fuzz study's target population: small
// text-processing programs of which a fraction carry the era's unchecked
// fixed-size buffers. Three of the nine crash under random input — the
// "over 25%" failure rate Miller reported for basic utilities.

func utilWorld(prog kernel.Program, args ...string) inject.Factory {
	return func() (*kernel.Kernel, inject.Launch) {
		k := kernel.New()
		k.Users.Add(proc.User{Name: "alice", UID: 100, GID: 100})
		if err := k.FS.MkdirAll("/", "/home/alice", 0o755, 100, 100); err != nil {
			panic(err)
		}
		if err := k.FS.WriteFile("/home/alice/input.txt",
			[]byte("line one\nline two\nline three\n"), 0o644, 100, 100); err != nil {
			panic(err)
		}
		return k, inject.Launch{
			Cred: proc.NewCred(100, 100),
			Env:  proc.NewEnv("PATH", "/usr/bin"),
			Cwd:  "/home/alice",
			Args: append([]string{"util"}, args...),
			Prog: prog,
		}
	}
}

// echoUtil is robust: it prints whatever it gets.
func echoUtil(p *kernel.Proc) int {
	p.Printf("%s\n", p.Arg("echo:arg", 1))
	return 0
}

// catUtil is robust: bounded reads, errors reported.
func catUtil(p *kernel.Proc) int {
	name := p.Arg("cat:arg", 1)
	if name == "" {
		name = "input.txt"
	}
	if len(name) > 255 || strings.ContainsRune(name, 0) {
		p.Eprintf("cat: bad file name\n")
		return 1
	}
	data, err := p.ReadFile("cat:file", name)
	if err != nil {
		p.Eprintf("cat: %v\n", err)
		return 1
	}
	p.Printf("%s", data)
	return 0
}

// wcUtil is robust: it counts without copying.
func wcUtil(p *kernel.Proc) int {
	s := p.Arg("wc:arg", 1)
	words := len(strings.Fields(s))
	p.Printf("%d %d\n", words, len(s))
	return 0
}

// headUtil is robust: bounded numeric parse.
func headUtil(p *kernel.Proc) int {
	n := 0
	for _, ch := range p.Arg("head:arg", 1) {
		if ch < '0' || ch > '9' {
			p.Eprintf("head: bad count\n")
			return 1
		}
		n = n*10 + int(ch-'0')
		if n > 1<<20 {
			p.Eprintf("head: count too large\n")
			return 1
		}
	}
	p.Printf("%d lines\n", n)
	return 0
}

// grepUtil carries the classic flaw: the pattern is strcpy'd into a
// 64-byte buffer.
func grepUtil(p *kernel.Proc) int {
	pattern := p.Arg("grep:arg", 1)
	var buf [64]byte
	n := p.CopyBounded(buf[:], []byte(pattern))
	data, err := p.ReadFile("grep:file", "input.txt")
	if err != nil {
		return 1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, string(buf[:n])) {
			p.Printf("%s\n", line)
		}
	}
	return 0
}

// bannerUtil carries the classic flaw: the message is copied into a
// 32-byte line buffer.
func bannerUtil(p *kernel.Proc) int {
	msg := p.Arg("banner:arg", 1)
	var line [32]byte
	n := p.CopyBounded(line[:], []byte(msg))
	p.Printf("*** %s ***\n", string(line[:n]))
	return 0
}

// calUtil carries the classic flaw: the month name is copied into a
// 16-byte buffer before validation.
func calUtil(p *kernel.Proc) int {
	month := p.Arg("cal:arg", 1)
	var buf [16]byte
	n := p.CopyBounded(buf[:], []byte(month))
	switch string(buf[:n]) {
	case "jan", "feb", "mar", "apr", "may", "jun",
		"jul", "aug", "sep", "oct", "nov", "dec":
		p.Printf("calendar for %s\n", string(buf[:n]))
		return 0
	default:
		p.Eprintf("cal: unknown month\n")
		return 1
	}
}

// sortUtil is robust.
func sortUtil(p *kernel.Proc) int {
	fields := strings.Fields(p.Arg("sort:arg", 1))
	for i := 0; i < len(fields); i++ {
		for j := i + 1; j < len(fields); j++ {
			if fields[j] < fields[i] {
				fields[i], fields[j] = fields[j], fields[i]
			}
		}
	}
	p.Printf("%s\n", strings.Join(fields, " "))
	return 0
}

// dateUtil is robust: it ignores its input entirely.
func dateUtil(p *kernel.Proc) int {
	_ = p.Arg("date:arg", 1)
	p.Printf("Thu Jun  8 12:00:00 2000\n")
	return 0
}

// UtilitySuite returns the nine-program population.
func UtilitySuite() []Target {
	return []Target{
		{Name: "echo", World: utilWorld(echoUtil, "hello")},
		{Name: "cat", World: utilWorld(catUtil, "input.txt")},
		{Name: "wc", World: utilWorld(wcUtil, "some words")},
		{Name: "head", World: utilWorld(headUtil, "10")},
		{Name: "grep", World: utilWorld(grepUtil, "line")},
		{Name: "banner", World: utilWorld(bannerUtil, "hi")},
		{Name: "cal", World: utilWorld(calUtil, "jan")},
		{Name: "sort", World: utilWorld(sortUtil, "b a c")},
		{Name: "date", World: utilWorld(dateUtil)},
	}
}
