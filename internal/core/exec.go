// Data-plane packet execution. When the engine is opened with
// Options.Exec, every epoch publication also carries an executable
// image: the current specialized program compiled (dpexec) under the
// current configuration. Image maintenance rides the same
// publication pipeline as every other epoch field, and follows the
// decisions of the call being published:
//
//   - a call whose updates were all forwarded — one Apply or a whole
//     batch — left the specialized program alone, so the previous
//     epoch's image is patched: one Image.WithTarget per touched table /
//     value set / register, which compiles only the entries that are new
//     to the table. This is the executable analogue of the paper's
//     "forward the update to the device" fast path;
//   - anything that may have reshaped the specialized program — a
//     respecializing update or batch group, a degradation or promotion,
//     ReevaluateAll — recompiles the image from the fresh specialized
//     program;
//   - a call that changed nothing (every update rejected by validation,
//     an empty batch) republishes the previous image untouched.
//
// Packet execution (Exec/ExecBatch) loads the published epoch and runs
// against its image: wait-free against writers, and always against a
// consistent program+configuration cut. Stale images retire exactly
// like epochs do — when the last reader drops them.
package core

import (
	"fmt"
	"time"

	"repro/internal/dpexec"
	"repro/internal/flayerr"
	"repro/internal/p4/typecheck"
)

// imgMark records that target's control-plane state changed under an
// otherwise unchanged specialized program: the next publication patches
// the previous image incrementally.
func (s *Specializer) imgMark(target string) {
	if !s.exec || s.imgFull {
		return
	}
	s.imgTargets = append(s.imgTargets, target)
}

// imgMarkFull forces the next publication to recompile the image from
// the specialized program. Any mutation that may have changed the
// program's shape (respecialization, precision changes, a full
// re-evaluation) routes here.
func (s *Specializer) imgMarkFull() {
	if !s.exec {
		return
	}
	s.imgFull = true
	s.imgTargets = s.imgTargets[:0]
}

// buildImageLocked produces the image for the epoch being published.
// Caller holds the write lock (or is inside a constructor). A compile
// failure keeps serving the previous image — deterministically stale
// rather than intermittently absent; the catalog programs never hit
// this path.
func (s *Specializer) buildImageLocked(prev *epoch) *dpexec.Image {
	if !s.exec {
		return nil
	}
	var pi *dpexec.Image
	if prev != nil {
		pi = prev.img
	}
	if pi != nil && !s.imgFull && len(s.imgTargets) == 0 {
		return pi
	}
	t0 := time.Now()
	img := s.patchImage(pi)
	patched := img != nil
	if !patched {
		img = s.compileImage(pi)
	}
	s.imgFull = false
	s.imgTargets = s.imgTargets[:0]
	elapsed := time.Since(t0)
	s.stats.ImageTime += elapsed
	s.met.imageNS.ObserveDuration(elapsed)
	if patched {
		s.stats.ImagePatches++
		s.met.imagePatches.Inc()
	} else {
		s.stats.ImageCompiles++
		s.met.imageCompiles.Inc()
	}
	return img
}

// patchImage chains one WithTarget per marked target onto the previous
// image; nil when the publication needs a full compile instead.
func (s *Specializer) patchImage(pi *dpexec.Image) *dpexec.Image {
	if pi == nil || s.imgFull {
		return nil
	}
	for _, t := range s.imgTargets {
		ni, err := pi.WithTarget(s.Cfg, t)
		if err != nil {
			return nil
		}
		pi = ni
	}
	return pi
}

// compileImage compiles the current specialized program under the
// current configuration, falling back to the previous image on failure.
func (s *Specializer) compileImage(pi *dpexec.Image) *dpexec.Image {
	spec := s.specializedProgramLocked()
	info, err := typecheck.Check(spec)
	if err != nil {
		return pi
	}
	img, err := dpexec.Compile(spec, info, s.Cfg)
	if err != nil {
		return pi
	}
	return img
}

func (s *Specializer) machine() *dpexec.Machine {
	if v := s.machines.Get(); v != nil {
		return v.(*dpexec.Machine)
	}
	return dpexec.NewMachine()
}

// PinnedExec pins one published image (and one pooled machine) for a
// stream of packets. Every Run executes against exactly the image
// current at PinExec time: the epoch load, the nil-image check and the
// machine rental are paid once per pin instead of once per packet, and
// a concurrent epoch publication cannot tear the stream — every packet
// of the pin sees the same program+configuration cut. A PinnedExec is
// not safe for concurrent use (it owns one machine); pin per goroutine.
//
// The pinned image is immutable and retires like any epoch image: when
// the pin and the publication pipeline both drop it.
type PinnedExec struct {
	s   *Specializer
	img *dpexec.Image
	m   *dpexec.Machine
}

// PinExec pins the currently published executable image for batch-level
// execution. Requires Options.Exec; otherwise flayerr.ErrExecDisabled.
// Callers must Close the pin to return its machine to the pool.
func (s *Specializer) PinExec() (*PinnedExec, error) {
	img := s.loadEpoch().img
	if img == nil {
		return nil, fmt.Errorf("core: %w", flayerr.ErrExecDisabled)
	}
	return &PinnedExec{s: s, img: img, m: s.machine()}, nil
}

// Run executes one packet against the pinned image.
func (p *PinnedExec) Run(data []byte, port uint16) (dpexec.Result, error) {
	res, err := p.m.Run(p.img, data, port)
	if err != nil {
		return dpexec.Result{}, err
	}
	res.Emitted = append([]byte(nil), res.Emitted...)
	return res, nil
}

// Close returns the pin's machine to the pool. Idempotent; Run after
// Close panics (the machine is gone).
func (p *PinnedExec) Close() {
	if p.m != nil {
		p.s.machines.Put(p.m)
		p.m = nil
	}
}

// Exec runs one packet through the published executable image and
// returns its observable result. It is wait-free against writers: the
// image is loaded from the current epoch with one atomic load, and
// concurrent control-plane churn only ever swaps in fully built images.
// Requires Options.Exec; otherwise flayerr.ErrExecDisabled.
func (s *Specializer) Exec(data []byte, port uint16) (dpexec.Result, error) {
	p, err := s.PinExec()
	if err != nil {
		return dpexec.Result{}, err
	}
	defer p.Close()
	return p.Run(data, port)
}

// ExecBatch runs a batch of packets against one consistent image (the
// epoch published when the batch started — mid-batch publications do
// not tear the batch). ports may be shorter than packets; missing
// entries default to port 0. The first packet runtime error aborts the
// batch.
func (s *Specializer) ExecBatch(packets [][]byte, ports []uint16) ([]dpexec.Result, error) {
	p, err := s.PinExec()
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out := make([]dpexec.Result, len(packets))
	for i, data := range packets {
		var port uint16
		if i < len(ports) {
			port = ports[i]
		}
		res, err := p.Run(data, port)
		if err != nil {
			return nil, fmt.Errorf("core: packet %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// ExecImage returns the currently published executable image (nil when
// the engine was opened without Options.Exec). The image is immutable;
// callers running their own dpexec.Machine against it — the benchmark
// harness does, to measure packet rates without result copying — see
// exactly what Exec executes.
func (s *Specializer) ExecImage() *dpexec.Image {
	return s.loadEpoch().img
}
