// Package fuzz reimplements the Miller et al. black-box random-input
// comparator the paper discusses in Section 5: feed programs random input
// streams and count crashes. The paper contrasts it with EAI injection —
// "rather than rely on random inputs, our approach exploits those input
// patterns that could possibly cause security violations" — and cites
// Fuzz's result that 25-33% of basic utilities crash.
package fuzz

import (
	"math/rand"

	"repro/internal/core/inject"
	"repro/internal/interpose"
)

// Target is one program under random testing.
type Target struct {
	Name  string
	World inject.Factory
}

// Result aggregates one target's trials.
type Result struct {
	Name    string
	Trials  int
	Crashes int
	// Errors counts runs that exited non-zero without crashing (rejected
	// input — the desirable outcome).
	Errors int
}

// Options configure the random stream.
type Options struct {
	// Trials per target; default 50.
	Trials int
	// MaxLen bounds each random payload; default 8192.
	MaxLen int
	// Seed makes campaigns reproducible.
	Seed int64
	// Printable restricts payloads to printable bytes, mirroring Fuzz's
	// printable-stream mode.
	Printable bool
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 50
	}
	if o.MaxLen == 0 {
		o.MaxLen = 8192
	}
	return o
}

// Run fuzzes one target: every environment input the program consumes is
// replaced by a random byte stream, the black-box analogue of piping
// /dev/urandom at a utility.
func Run(t Target, opt Options) Result {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	res := Result{Name: t.Name}
	// The snapshot seam: one world build, one copy-on-write fork per trial.
	ws := inject.NewRunWorld(t.World)
	for i := 0; i < opt.Trials; i++ {
		res.Trials++
		k, l := ws.World()
		k.Bus.OnPost(func(c *interpose.Call, r *interpose.Result) {
			if !c.Op.HasInput() || r.Err != nil {
				return
			}
			r.Data = payload(rng, opt)
		})
		p := k.NewProc(l.Cred, l.Env, l.Cwd, l.Args...)
		exit, crash := k.Run(p, l.Prog)
		switch {
		case crash != nil:
			res.Crashes++
		case exit != 0:
			res.Errors++
		}
	}
	return res
}

func payload(rng *rand.Rand, opt Options) []byte {
	n := 1 + rng.Intn(opt.MaxLen)
	b := make([]byte, n)
	for i := range b {
		if opt.Printable {
			b[i] = byte(0x20 + rng.Intn(0x5f))
		} else {
			b[i] = byte(rng.Intn(256))
		}
	}
	return b
}

// RunSuite fuzzes every target and reports the suite-level crash
// statistics the Fuzz papers quote.
func RunSuite(targets []Target, opt Options) (results []Result, crashed int) {
	for i, t := range targets {
		o := opt
		o.Seed = opt.Seed + int64(i)
		r := Run(t, o)
		results = append(results, r)
		if r.Crashes > 0 {
			crashed++
		}
	}
	return results, crashed
}
