package inject

import (
	"sync"

	"repro/internal/sim/kernel"
	"repro/internal/sim/vfs"
)

// worldSource hands out per-run worlds for one campaign: it invokes the
// factory once, freezes the result as the clean image, and forks a
// mutable kernel per request. Forks are byte-identical to fresh builds
// (see kernel.Snapshot.Fork), which the reference-engine differential
// test pins end to end.
type worldSource struct {
	snap   *kernel.Snapshot
	launch Launch
}

// newWorldSource builds the factory's world once and freezes it.
func newWorldSource(f Factory) worldSource {
	k, l := f()
	return worldSource{snap: k.Snapshot(), launch: l}
}

// world returns a fresh mutable kernel and launch description.
func (ws *worldSource) world() (*kernel.Kernel, Launch) { return ws.snap.Fork(), ws.launch }

// baseFS returns the frozen clean-world filesystem. The oracle uses it
// directly as the pre-run state snapshot — it is immutable, so no
// defensive clone is needed.
func (ws *worldSource) baseFS() *vfs.FS { return ws.snap.FS() }

// RunWorld is the snapshot seam for out-of-engine consumers — the
// Section 5 baseline comparators and any other repeated-trial harness.
// It wraps an arbitrary world factory so each trial forks one frozen
// image instead of rebuilding, and exposes the frozen clean filesystem
// for oracle state snapshots.
type RunWorld struct {
	ws worldSource
}

// NewRunWorld captures the factory's world. The factory runs exactly
// once, here.
func NewRunWorld(f Factory) *RunWorld { return &RunWorld{ws: newWorldSource(f)} }

// World returns a fresh mutable kernel and launch for one trial.
func (w *RunWorld) World() (*kernel.Kernel, Launch) { return w.ws.world() }

// BaseFS returns the frozen clean filesystem shared by every trial.
func (w *RunWorld) BaseFS() *vfs.FS { return w.ws.baseFS() }

// WorldImage memoizes one world build as a frozen kernel snapshot and
// hands out copy-on-write forks through the standard Factory shape. App
// packages whose world content is identical across program variants share
// one image per package and attach the variant with FactoryWith.
type WorldImage struct {
	build Factory

	mu  sync.Mutex
	src worldSource // zero until the first Factory call builds it
}

// NewWorldImage wraps a world-building factory in a memoizing image. The
// factory runs at most once.
func NewWorldImage(build Factory) *WorldImage { return &WorldImage{build: build} }

// Factory returns an inject.Factory backed by the image.
func (w *WorldImage) Factory() Factory { return w.FactoryWith(nil) }

// FactoryWith returns a Factory whose Launch is adjusted by mod after the
// (shared) world is forked — how an app package installs the program
// variant and arguments onto a world image common to every variant. mod
// must not touch the kernel; it may only rewrite the launch description.
func (w *WorldImage) FactoryWith(mod func(Launch) Launch) Factory {
	return func() (*kernel.Kernel, Launch) {
		w.mu.Lock()
		if w.src.snap == nil {
			w.src = newWorldSource(w.build)
		}
		src := w.src
		w.mu.Unlock()
		k, l := src.world()
		if mod != nil {
			l = mod(l)
		}
		return k, l
	}
}
