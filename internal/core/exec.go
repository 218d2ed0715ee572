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
//     program against the previous image (Image.Recompile): the main
//     code is compiled anew, and every table entry whose compile context
//     held — same slots, key layout, apply-site scope and action — is
//     carried over, so a respecialization compiles the entries of the
//     tables it reshaped and the call's new entries, not every entry;
//   - a call that changed nothing (every update rejected by validation,
//     an empty batch) republishes the previous image untouched.
//
// Packet execution (Exec/ExecBatch) loads the published epoch and runs
// against its image: wait-free against writers, and always against a
// consistent program+configuration cut. Stale images retire exactly
// like epochs do — when the last reader drops them.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dpexec"
	"repro/internal/flayerr"
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
// rather than intermittently absent — counts in core.image_errors, and
// leaves the full compile marked, so the next publication retries it
// instead of patching an image of another program. The catalog
// programs never hit this path.
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
	img, blocks := s.patchImage(pi)
	patched := img != nil
	var err error
	if !patched {
		img, err = s.compileImage(pi)
		if err == nil {
			blocks = img.BlocksCompiled()
		}
	}
	s.imgTargets = s.imgTargets[:0]
	elapsed := time.Since(t0)
	s.stats.ImageTime += elapsed
	s.met.imageNS.ObserveDuration(elapsed)
	switch {
	case err != nil:
		s.imgFull = true
		s.stats.ImageErrors++
		s.met.imageErrors.Inc()
		return pi
	case patched:
		s.stats.ImagePatches++
		s.met.imagePatches.Inc()
	default:
		s.stats.ImageCompiles++
		s.met.imageCompiles.Inc()
	}
	s.imgFull = false
	s.stats.ImageBlocks += blocks
	s.met.imageBlocks.Add(int64(blocks))
	return img
}

// patchImage chains one WithTarget per marked target onto the previous
// image and counts the entry blocks the chain compiled; nil when the
// publication needs a full compile instead.
func (s *Specializer) patchImage(pi *dpexec.Image) (*dpexec.Image, int) {
	if pi == nil || s.imgFull {
		return nil, 0
	}
	blocks := 0
	for _, t := range s.imgTargets {
		ni, err := pi.WithTarget(s.Cfg, t)
		if err != nil {
			return nil, 0
		}
		pi = ni
		blocks += ni.BlocksCompiled()
	}
	return pi, blocks
}

// compileImage compiles the current specialized program under the
// current configuration against pi, the previous image, stale or not:
// what of it carries over is decided by compile context
// (dpexec.Image.Recompile), not by trusting where it came from. The
// program's types are the ones the rewriter carried from the checked
// original; the image suite holds them to a fresh check
// (image_test.go).
func (s *Specializer) compileImage(pi *dpexec.Image) (*dpexec.Image, error) {
	if s.imgFault {
		s.imgFault = false
		return nil, errImageFault
	}
	spec, info := s.specializedProgramLocked()
	return pi.Recompile(spec, info, s.Cfg)
}

// errImageFault is the failure FailNextImageCompile (export_test.go)
// injects.
var errImageFault = errors.New("core: injected image compile fault")

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
	s     *Specializer
	img   *dpexec.Image
	m     *dpexec.Machine
	epoch uint64
}

// PinExec pins the currently published executable image for batch-level
// execution. Requires Options.Exec; otherwise flayerr.ErrExecDisabled.
// Callers must Close the pin to return its machine to the pool.
func (s *Specializer) PinExec() (*PinnedExec, error) {
	e := s.loadEpoch()
	if e.img == nil {
		return nil, fmt.Errorf("core: %w", flayerr.ErrExecDisabled)
	}
	return &PinnedExec{s: s, img: e.img, m: s.machine(), epoch: e.seq}, nil
}

// Epoch is the sequence number of the epoch whose image the pin runs
// (EpochSeq at PinExec time), however many epochs publish after it.
func (p *PinnedExec) Epoch() uint64 { return p.epoch }

// Run executes one packet against the pinned image.
func (p *PinnedExec) Run(data []byte, port uint16) (dpexec.Result, error) {
	res, err := p.m.Run(p.img, data, port)
	if err != nil {
		return dpexec.Result{}, err
	}
	return owned(res), nil
}

// owned returns res with Emitted copied out of the machine's buffer, so
// the result outlives the next Run and belongs to the caller.
func owned(res dpexec.Result) dpexec.Result {
	res.Emitted = append([]byte(nil), res.Emitted...)
	return res
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
	err = p.RunEach(packets, ports, func(i int, res dpexec.Result) { out[i] = owned(res) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunEach runs a batch of packets in order against the pinned image and
// hands each result to fn, with ExecBatch's port defaulting and error
// rule. The result's Emitted is the pin's machine buffer: it is valid
// only until fn returns.
func (p *PinnedExec) RunEach(packets [][]byte, ports []uint16, fn func(i int, res dpexec.Result)) error {
	for i, data := range packets {
		var port uint16
		if i < len(ports) {
			port = ports[i]
		}
		res, err := p.m.Run(p.img, data, port)
		if err != nil {
			return fmt.Errorf("core: packet %d: %w", i, err)
		}
		fn(i, res)
	}
	return nil
}
