package kernel

import (
	"repro/internal/interpose"
	"repro/internal/sim/registry"
)

// principalFor maps POSIX-style effective credentials onto the registry's
// NT-style principals: euid 0 acts as Administrator, everyone else as an
// authenticated user.
func principalFor(euid int) registry.Principal {
	if euid == 0 {
		return registry.Administrator
	}
	return registry.AuthenticatedUser
}

// RegGetString reads a registry string value through the bus. Registry
// reads are environment input: the Section 4.2 perturbations rewrite what
// the consuming module receives by writing the unprotected key first.
func (p *Proc) RegGetString(site, key, name string) (string, error) {
	if p.K.Reg == nil {
		return "", ErrNoReg
	}
	c := p.begin(interpose.Call{
		Site: site, Op: interpose.OpRegGet, Kind: interpose.KindRegistry,
		Path: key, Path2: name,
	})
	s, err := p.K.Reg.GetString(c.Path, c.Path2, principalFor(p.Cred.EUID))
	r := p.end(interpose.Result{Data: []byte(s), Err: err}, c.Path+`\`+c.Path2)
	if r.Err != nil {
		return "", r.Err
	}
	return delivered(r.Data, s), nil
}
