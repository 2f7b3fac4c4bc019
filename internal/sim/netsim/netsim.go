// Package netsim is the simulated network substrate: hosts, a DNS table,
// connection-oriented services with scripted replies, and message
// provenance.
//
// The EAI model's network entity (Table 6) carries five perturbable
// attributes: message authenticity, protocol conformance, socket sharing,
// service availability, and entity trustability. Each is a first-class
// field here so the direct-fault appliers can flip it between the check and
// the use, exactly as a network attacker would.
package netsim

import (
	"errors"
	"fmt"
)

// Static errors matched with errors.Is by applications and the oracle.
var (
	ErrUnknownHost   = errors.New("netsim: unknown host")
	ErrUnavailable   = errors.New("netsim: service unavailable")
	ErrConnRefused   = errors.New("netsim: connection refused")
	ErrConnClosed    = errors.New("netsim: connection closed")
	ErrProtocol      = errors.New("netsim: protocol violation")
	ErrNoSuchService = errors.New("netsim: no such service")
)

// Message is one unit of network input with provenance. Authentic reports
// whether the message really originates from the peer the application
// believes it is talking to; the message-authenticity perturbation clears
// it and rewrites From.
type Message struct {
	From      string // host identity the message claims
	Data      []byte
	Authentic bool
}

// Clone returns an independent copy of the message.
func (m Message) Clone() Message {
	c := m
	c.Data = append([]byte(nil), m.Data...)
	return c
}

// Service is a network endpoint applications connect to. Script holds the
// replies it serves in order; Steps names the protocol steps a conforming
// exchange performs, which the protocol perturbation reorders or drops.
type Service struct {
	Addr      string // "host:port"
	Host      string
	Available bool
	Trusted   bool
	Script    []Message
	Steps     []string

	// SharedWith, when non-empty, names another process that holds the
	// same socket — the socket-sharing perturbation of Table 6.
	SharedWith string
}

// Net is the network world: a DNS table plus services keyed by address.
// The zero value is unusable; create instances with New.
type Net struct {
	dns      map[string]string // hostname → address
	services map[string]*Service
}

// New returns an empty network.
func New() *Net {
	return &Net{
		dns:      make(map[string]string),
		services: make(map[string]*Service),
	}
}

// AddDNS maps hostname to an address.
func (n *Net) AddDNS(host, addr string) { n.dns[host] = addr }

// Lookup resolves a hostname. It returns ErrUnknownHost for missing names.
func (n *Net) Lookup(host string) (string, error) {
	addr, ok := n.dns[host]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	return addr, nil
}

// AddService registers a service. The service is reachable at its Addr.
func (n *Net) AddService(s *Service) {
	if s.Host == "" {
		s.Host = s.Addr
	}
	n.services[s.Addr] = s
}

// Service returns the service at addr, or nil.
func (n *Net) Service(addr string) *Service { return n.services[addr] }

// Conn is an established connection to a service. It replays the service's
// script on Recv and records what the application Sends.
type Conn struct {
	svc  *Service
	pos  int
	step int
	Sent [][]byte
}

// Dial connects to the service at addr. Unavailable services refuse, which
// is exactly what the service-availability perturbation arranges.
func (n *Net) Dial(addr string) (*Conn, error) {
	s, ok := n.services[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	if !s.Available {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, addr)
	}
	return &Conn{svc: s}, nil
}

// Recv returns the next scripted message. After the script is exhausted it
// returns ErrConnClosed.
func (c *Conn) Recv() (Message, error) {
	if c.pos >= len(c.svc.Script) {
		return Message{}, ErrConnClosed
	}
	m := c.svc.Script[c.pos].Clone()
	c.pos++
	return m, nil
}

// Send transmits data to the service, recording it for inspection. When
// the service defines protocol Steps, Send also advances the protocol
// cursor; sending past the final step is a protocol violation.
func (c *Conn) Send(data []byte) error {
	c.Sent = append(c.Sent, append([]byte(nil), data...))
	if len(c.svc.Steps) > 0 {
		if c.step >= len(c.svc.Steps) {
			return fmt.Errorf("%w: extra step beyond %q", ErrProtocol, c.svc.Steps)
		}
		c.step++
	}
	return nil
}

// Service returns the connected service.
func (c *Conn) Service() *Service { return c.svc }

// Clone deep-copies the network world, so a fault campaign can reset
// between runs.
func (n *Net) Clone() *Net {
	c := New()
	for h, a := range n.dns {
		c.dns[h] = a
	}
	for addr, s := range n.services {
		cs := &Service{
			Addr:       s.Addr,
			Host:       s.Host,
			Available:  s.Available,
			Trusted:    s.Trusted,
			SharedWith: s.SharedWith,
			Steps:      append([]string(nil), s.Steps...),
		}
		for _, m := range s.Script {
			cs.Script = append(cs.Script, m.Clone())
		}
		c.services[addr] = cs
	}
	return c
}
