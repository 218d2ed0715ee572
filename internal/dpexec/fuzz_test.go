package dpexec_test

import (
	"sync"
	"testing"

	"repro/internal/bmv2"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/fuzz"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
)

// fuzzEngines caches one loaded engine per catalog program. Only the
// immutable analysis products (Prog, Info, An) are shared across fuzz
// iterations; every iteration builds its own private Config.
var (
	fuzzMu      sync.Mutex
	fuzzEngines = map[string]*core.Specializer{}
)

func fuzzLoad(name string) (*core.Specializer, error) {
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	if s, ok := fuzzEngines[name]; ok {
		return s, nil
	}
	p, err := progs.ByName(name)
	if err != nil {
		return nil, err
	}
	s, err := p.Load()
	if err != nil {
		return nil, err
	}
	fuzzEngines[name] = s
	return s, nil
}

// FuzzDpexecVsBmv2 is the packet-level differential fuzz target: a
// random packet executed after a random churn prefix must produce the
// same verdict and output frame on the bytecode executor as on the
// reference interpreter, packet for packet. The corpus seeds one entry
// per catalog program so coverage starts from every parser/table shape
// in the evaluation set.
func FuzzDpexecVsBmv2(f *testing.F) {
	catalog := progs.Catalog()
	names := make([]string, len(catalog))
	for i, p := range catalog {
		names[i] = p.Name
		// A plausible ethernet+IPv4 frame plus a short junk frame, per
		// program, at varying churn depths.
		frame := []byte{
			0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02,
			0x08, 0x00,
			0x45, 0x00, 0x00, 0x1c, 0x00, 0x01, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
			0x0a, 0x00, 0x00, byte(i), 0x0a, 0x00, 0x01, byte(i),
			0x12, 0x34, 0x56, 0x78, 0x00, 0x08, 0x00, 0x00,
		}
		f.Add(i, uint64(i)*0x9e37+1, uint8(i*3), uint16(i), frame)
		f.Add(i, uint64(i)+7, uint8(0), uint16(511), []byte{0xde, 0xad})
	}

	f.Fuzz(func(t *testing.T, progIdx int, churnSeed uint64, churnLen uint8, port uint16, data []byte) {
		name := names[((progIdx%len(names))+len(names))%len(names)]
		s, err := fuzzLoad(name)
		if err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		if len(data) > 512 {
			data = data[:512]
		}

		// Private config: a churn prefix of generator updates (valid by
		// construction; the few the config still rejects are skipped).
		cfg := controlplane.NewConfig(s.An)
		stream, err := fuzz.New(s.An, churnSeed).Stream(int(churnLen % 48))
		if err != nil {
			t.Skipf("stream: %v", err)
		}
		for _, u := range stream {
			_ = cfg.Apply(u)
		}

		img, err := dpexec.Compile(s.Prog, s.Info, cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		want, err1 := bmv2.New(s.Prog, s.Info, cfg).Run(bmv2.Packet{Data: data, IngressPort: port})
		got, err2 := dpexec.NewMachine().Run(img, data, port)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s packet %x port %d: error divergence: bmv2 %v vs dpexec %v",
				name, data, port, err1, err2)
		}
		if err1 != nil {
			return
		}
		if !got.Equal(dpexec.Result{Dropped: want.Dropped, EgressPort: want.EgressPort,
			McastGrp: want.McastGrp, Emitted: want.Emitted}) {
			t.Fatalf("%s packet %x port %d:\nbmv2:   %+v\ndpexec: %+v", name, data, port, want, got)
		}
	})
}

// publication is what one engine published after a churn prefix: the
// original program, its specialized program and image, and the
// configuration all three run under.
type publication struct {
	prog     *ast.Program
	info     *typecheck.Info
	spec     *ast.Program
	specInfo *typecheck.Info
	img      *dpexec.Image
	cfg      *controlplane.Config
}

type specKey struct {
	name     string
	seed     uint64
	churnLen int
}

// specCache holds the specialized programs of recent churn prefixes:
// the fuzzer mutates the frame far more often than the prefix, and
// opening an engine costs milliseconds. It is emptied when full.
var (
	specMu    sync.Mutex
	specCache = map[specKey]*publication{}
)

const specCacheMax = 32

// specializeAfter opens name, applies the generator's churn prefix
// (the engine rejects the few updates its configuration refuses) and
// returns what it publishes.
func specializeAfter(k specKey) (*publication, error) {
	specMu.Lock()
	defer specMu.Unlock()
	if sp, ok := specCache[k]; ok {
		return sp, nil
	}
	p, err := progs.ByName(k.name)
	if err != nil {
		return nil, err
	}
	s, err := p.Load()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	stream, err := fuzz.New(s.An, k.seed).Stream(k.churnLen)
	if err != nil {
		return nil, err
	}
	for _, u := range stream {
		s.Apply(u)
	}
	sp := &publication{prog: s.Prog, info: s.Info, spec: s.SpecializedProgram(), cfg: s.Cfg}
	if sp.specInfo, err = typecheck.Check(sp.spec); err != nil {
		return nil, err
	}
	if sp.img, err = dpexec.Compile(sp.spec, sp.specInfo, sp.cfg); err != nil {
		return nil, err
	}
	if len(specCache) == specCacheMax {
		clear(specCache)
	}
	specCache[k] = sp
	return sp, nil
}

// FuzzSpecializedVsOriginal is FuzzDpexecVsBmv2's specialization arm,
// on the same inputs: after the churn prefix, an engine's specialized
// program must give the original's result on bmv2, and its image on
// dpexec must give that result too. The corpus holds the same seeds and
// two frames through scion's parse_scion state: one whose hop field
// carries cons_ingress = 40, and the same frame cut one byte short of
// the hop field.
func FuzzSpecializedVsOriginal(f *testing.F) {
	catalog := progs.Catalog()
	names := make([]string, len(catalog))
	for i, p := range catalog {
		names[i] = p.Name
		frame := []byte{
			0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02,
			0x08, 0x00,
			0x45, 0x00, 0x00, 0x1c, 0x00, 0x01, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
			0x0a, 0x00, 0x00, byte(i), 0x0a, 0x00, 0x01, byte(i),
			0x12, 0x34, 0x56, 0x78, 0x00, 0x08, 0x00, 0x00,
		}
		f.Add(i, uint64(i)*0x9e37+1, uint8(i*3), uint16(i), frame)
		f.Add(i, uint64(i)+7, uint8(0), uint16(511), []byte{0xde, 0xad})
		if p.Name == "scion" {
			// eth/IPv4 (protocol 17)/UDP to port 50000, then scion (12
			// bytes), scion_addr (16), path_meta (4) and hop (12) with
			// hop.cons_ingress = 40, then 8 bytes of payload.
			hop := make([]byte, 14+20+8+44+8)
			hop[12], hop[13], hop[14], hop[23] = 0x08, 0x00, 0x45, 17
			hop[36], hop[37] = 0xc3, 0x50
			hop[42+35] = 0x28
			short := hop[:14+20+8+43]
			for _, churnLen := range []uint8{0, 24} {
				f.Add(i, uint64(1), churnLen, uint16(1), hop)
				f.Add(i, uint64(1), churnLen, uint16(1), short)
			}
		}
	}

	f.Fuzz(func(t *testing.T, progIdx int, churnSeed uint64, churnLen uint8, port uint16, data []byte) {
		name := names[((progIdx%len(names))+len(names))%len(names)]
		if len(data) > 512 {
			data = data[:512]
		}
		sp, err := specializeAfter(specKey{name, churnSeed, int(churnLen % 48)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pkt := bmv2.Packet{Data: data, IngressPort: port}
		want, err1 := bmv2.New(sp.prog, sp.info, sp.cfg).Run(pkt)
		spec, err2 := bmv2.New(sp.spec, sp.specInfo, sp.cfg).Run(pkt)
		got, err3 := dpexec.NewMachine().Run(sp.img, data, port)
		if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
			t.Fatalf("%s packet %x port %d: error divergence: original %v, specialized %v, image %v",
				name, data, port, err1, err2, err3)
		}
		if err1 != nil {
			return
		}
		if !want.Equal(spec) || want.ParserRejected != spec.ParserRejected {
			t.Fatalf("%s packet %x port %d:\noriginal:    %+v\nspecialized: %+v", name, data, port, want, spec)
		}
		if !got.Equal(dpexec.Result{Dropped: want.Dropped, EgressPort: want.EgressPort,
			McastGrp: want.McastGrp, Emitted: want.Emitted}) {
			t.Fatalf("%s packet %x port %d:\noriginal on bmv2:   %+v\nspecialized image: %+v", name, data, port, want, got)
		}
	})
}
