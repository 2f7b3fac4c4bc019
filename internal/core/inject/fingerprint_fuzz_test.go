package inject

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/core/eai"
	"repro/internal/core/policy"
	"repro/internal/interpose"
	"repro/internal/sim/proc"
)

// FuzzFingerprintVsReference feeds fuzzed strings, ints, bools and byte
// slices through the production encoder and the io.Writer reference,
// field by field and as whole campaigns and trace events, and requires
// equal digests.
func FuzzFingerprintVsReference(f *testing.F) {
	f.Add("lpr:create", "/tmp/x", 3, -1, true, []byte("payload\n"))
	f.Add("", "", 0, 0, false, []byte(nil))
	f.Add("a#b", "ab\x00c", -1<<63, 1<<62, true, []byte{0xff, 0})
	f.Fuzz(func(t *testing.T, s1, s2 string, n1, n2 int, b bool, data []byte) {
		ref := sha256.New()
		e := getEncoder()
		defer e.release()

		fpStr(ref, s1)
		e.str(s1)
		fpInt(ref, n1, n2)
		e.int(n1)
		e.int(n2)
		fpBool(ref, b, !b)
		e.bool(b)
		e.bool(!b)
		fpStr(ref, string(data))
		e.bytes(data)
		fpStr(ref, interpose.PointID(s2, n2))
		e.point(s2, n2)

		var err error
		if b {
			err = errors.New(s2)
		}
		ev := interpose.Event{
			Call: interpose.Call{
				Seq: n1, Site: s1, Occur: n2, Op: interpose.Op(s2),
				Kind: interpose.ObjectKind(n1), Path: s2, Path2: s1, Data: data,
				Mode: uint16(n2), Flags: n1, UID: n2, EUID: n1, GID: -n1, EGID: -n2, Cwd: s2,
			},
			Result:       interpose.Result{Data: data, Str: s1, N: n2, Flag: !b, Err: err},
			ResolvedPath: s1 + s2,
			Mutated:      b,
		}
		fpEvent(ref, &ev)
		e.event(&ev)

		cred := proc.Cred{UID: n1, GID: n2, EUID: -n1, EGID: -n2, SUID: n1 ^ n2}
		c := Campaign{
			Name:      s1,
			Sites:     []string{s1, s2},
			Semantics: map[string]eai.Semantic{s1: eai.Semantic(n1), s2 + "/": eai.Semantic(n2)},
			Policy: policy.Policy{
				Invoker: cred, Attacker: proc.NewCred(n2, n1),
				TrustedWritePaths: []string{s2}, MinLeakLen: n1,
			},
			Faults: eai.Config{
				Attacker: cred, AttackerDir: s1, ReadTarget: s2, WriteTarget: s1, DirTarget: s2,
				AttackerContent: data, EvilHost: s1,
				ReadTargetOverrides: map[string]string{s2: s1, s1 + "x": s2},
			},
		}
		fpCampaign(ref, &c)
		e.campaign(&c)
		opt := Options{NoObjectDedup: b, OnlyDirect: !b, OnlyIndirect: n1%2 == 0, DirectAfterPoint: n2%2 == 0}
		fpOptions(ref, opt)
		e.options(opt)

		if want, got := hex.EncodeToString(ref.Sum(nil)), e.sum(); got != want {
			t.Fatalf("encoder digest %s, reference %s", got, want)
		}
	})
}
