// Package ava reimplements the Adaptive Vulnerability Analysis comparator
// (Ghosh et al.) the paper discusses in Section 5: instead of perturbing
// the environment, AVA perturbs the *internal state* of the executing
// application by corrupting the data assigned to its variables.
//
// In this reproduction the internal state accessible to a black-box
// harness is the value every input assigns to an internal entity, so AVA
// corrupts those values randomly (bit flips, truncations, extensions) —
// in contrast to the EAI engine's semantic Table 5 patterns and Table 6
// environment rewrites. The paper's complementarity claim falls out
// measurably: AVA cannot simulate attacks "that do not affect the
// internal states" (all of Table 6), and random corruption finds the
// crash bugs but rarely composes a semantic attack like "../" escape.
package ava

import (
	"math/rand"

	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/interpose"
)

// Result aggregates an AVA campaign.
type Result struct {
	Name       string
	Trials     int
	Crashes    int
	Violations int
	// ViolationKinds counts oracle findings by kind across all trials.
	ViolationKinds map[policy.Kind]int
}

// Options configure the corruption engine.
type Options struct {
	// Trials is the number of perturbed runs; default 100.
	Trials int
	// Seed makes campaigns reproducible.
	Seed int64
	// CorruptProb is the per-input probability of corruption; default 0.5.
	CorruptProb float64
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 100
	}
	if o.CorruptProb == 0 {
		o.CorruptProb = 0.5
	}
	return o
}

// Run executes the AVA campaign: each trial corrupts a random subset of
// the program's internal-state assignments and consults the same security
// oracle the EAI engine uses.
func Run(name string, world inject.Factory, pol policy.Policy, opt Options) Result {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	res := Result{Name: name, ViolationKinds: make(map[policy.Kind]int)}
	// The snapshot seam: build the world once, fork it per trial, and use
	// the frozen image directly as the oracle's pre-run state instead of
	// deep-cloning the filesystem every trial.
	ws := inject.NewRunWorld(world)
	for i := 0; i < opt.Trials; i++ {
		res.Trials++
		k, l := ws.World()
		k.Bus.OnPost(func(c *interpose.Call, r *interpose.Result) {
			if !c.Op.HasInput() || r.Err != nil || r.Data == nil {
				return
			}
			if rng.Float64() >= opt.CorruptProb {
				return
			}
			r.Data = corrupt(rng, r.Data)
		})
		p := k.NewProc(l.Cred, l.Env.Clone(), l.Cwd, l.Args...)
		_, crash := k.Run(p, l.Prog)
		obs := policy.Observation{
			Trace:  k.Bus.Trace(),
			Stdout: p.Stdout.Bytes(),
			Snap:   ws.BaseFS(),
		}
		if crash != nil {
			res.Crashes++
			obs.CrashMsg = crash.Msg
		}
		v := pol.Evaluate(obs)
		if len(v) > 0 {
			res.Violations++
			for _, viol := range v {
				res.ViolationKinds[viol.Kind]++
			}
		}
	}
	return res
}

// corrupt applies one of AVA's value perturbations: bit flips, random
// truncation, or random extension.
func corrupt(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	switch rng.Intn(3) {
	case 0: // bit flips
		if len(out) == 0 {
			return out
		}
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(out))
			out[pos] ^= 1 << rng.Intn(8)
		}
	case 1: // truncate
		if len(out) > 1 {
			out = out[:rng.Intn(len(out))]
		}
	case 2: // extend with random bytes
		ext := make([]byte, 1+rng.Intn(4096))
		for i := range ext {
			ext[i] = byte(rng.Intn(256))
		}
		out = append(out, ext...)
	}
	return out
}
