package netsim

import (
	"errors"
	"testing"
)

func newTestNet() *Net {
	n := New()
	n.AddDNS("printhost", "10.0.0.5")
	n.AddService(&Service{
		Addr:      "10.0.0.5:515",
		Host:      "printhost",
		Available: true,
		Trusted:   true,
		Script: []Message{
			{From: "printhost", Data: []byte("OK spool"), Authentic: true},
			{From: "printhost", Data: []byte("OK done"), Authentic: true},
		},
		Steps: []string{"HELO", "JOB", "DATA"},
	})
	return n
}

func TestLookup(t *testing.T) {
	t.Parallel()
	n := newTestNet()
	addr, err := n.Lookup("printhost")
	if err != nil || addr != "10.0.0.5" {
		t.Fatalf("Lookup = %q, %v", addr, err)
	}
	if _, err := n.Lookup("nowhere"); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown host err = %v", err)
	}
}

func TestDNSPoisoning(t *testing.T) {
	t.Parallel()
	n := newTestNet()
	n.AddDNS("printhost", "10.66.6.6")
	addr, err := n.Lookup("printhost")
	if err != nil || addr != "10.66.6.6" {
		t.Fatalf("after AddDNS: %q, %v", addr, err)
	}
}

func TestDialAndScript(t *testing.T) {
	t.Parallel()
	n := newTestNet()
	c, err := n.Dial("10.0.0.5:515")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	m1, err := c.Recv()
	if err != nil || string(m1.Data) != "OK spool" || !m1.Authentic {
		t.Fatalf("Recv 1 = %+v, %v", m1, err)
	}
	m2, err := c.Recv()
	if err != nil || string(m2.Data) != "OK done" {
		t.Fatalf("Recv 2 = %+v, %v", m2, err)
	}
	if _, err := c.Recv(); !errors.Is(err, ErrConnClosed) {
		t.Errorf("exhausted Recv err = %v", err)
	}
}

func TestDialFailures(t *testing.T) {
	t.Parallel()
	n := newTestNet()
	if _, err := n.Dial("10.0.0.9:99"); !errors.Is(err, ErrConnRefused) {
		t.Errorf("missing service err = %v", err)
	}
	n.Service("10.0.0.5:515").Available = false
	if _, err := n.Dial("10.0.0.5:515"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("unavailable err = %v", err)
	}
	n.AddService(&Service{Addr: "a:1"})
	if h := n.Service("a:1").Host; h != "a:1" {
		t.Errorf("default Host = %q, want addr", h)
	}
	if _, err := n.Dial("a:1"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("service added unavailable: err = %v", err)
	}
}

func TestSendProtocolSteps(t *testing.T) {
	t.Parallel()
	n := newTestNet()
	c, err := n.Dial("10.0.0.5:515")
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range []string{"HELO lpr", "JOB 1", "DATA xyz"} {
		if err := c.Send([]byte(msg)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := c.Send([]byte("EXTRA")); !errors.Is(err, ErrProtocol) {
		t.Errorf("extra step err = %v", err)
	}
	if len(c.Sent) != 4 {
		t.Errorf("Sent records = %d, want 4 (violating send still recorded)", len(c.Sent))
	}
}

func TestMessageCloneIsolation(t *testing.T) {
	t.Parallel()
	m := Message{From: "a", Data: []byte("hello"), Authentic: true}
	c := m.Clone()
	c.Data[0] = 'X'
	if string(m.Data) != "hello" {
		t.Error("Clone shares data")
	}
}

func TestRecvIsolatedFromScript(t *testing.T) {
	t.Parallel()
	n := newTestNet()
	c, err := n.Dial("10.0.0.5:515")
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m.Data[0] = 'X'
	c2, err := n.Dial("10.0.0.5:515")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m2.Data) != "OK spool" {
		t.Error("Recv leaked script buffer to caller")
	}
}

func TestNetClone(t *testing.T) {
	t.Parallel()
	n := newTestNet()
	c := n.Clone()
	// Perturb the clone.
	c.Service("10.0.0.5:515").Available = false
	c.Service("10.0.0.5:515").Script[0].Data[0] = 'X'
	c.AddDNS("printhost", "10.9.9.9")
	// Original unchanged.
	if !n.Service("10.0.0.5:515").Available {
		t.Error("clone shares Available")
	}
	if string(n.Service("10.0.0.5:515").Script[0].Data) != "OK spool" {
		t.Error("clone shares script data")
	}
	if addr, _ := n.Lookup("printhost"); addr != "10.0.0.5" {
		t.Error("clone shares dns")
	}
}
