package bmv2

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/sym"
)

// catalogChurnLen is the length of each churn stream the catalog suite
// replays, one ApplyBatch per declared batch.
const catalogChurnLen = 32

// TestSpecializedMatchesOriginalCatalog holds every catalog program's
// specialized program to its original on bmv2: at open, after the
// representative configuration, after scion's IPv6 enable, and after
// every batch of each churn pattern. At each point the specialized
// parser must keep every state's extracts in order, and the two
// programs must give the same result on frames from the parser-path
// generator. Every state the live configuration lets the parser reach
// must be reached by some frame at that point.
func TestSpecializedMatchesOriginalCatalog(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			c := &catalogCheck{t: t, r: rand.New(rand.NewSource(nameSeed(p.Name))), reached: map[string]bool{}}
			load := func() *core.Specializer {
				s, err := p.Load()
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := load()
			c.check(s, "open")
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			c.check(s, "representative")
			if p.IPv6Enable != nil {
				for _, u := range p.IPv6Enable() {
					if d := s.Apply(u); d.Kind == core.Rejected {
						t.Fatalf("ipv6 enable rejected: %v", d.Err)
					}
				}
				c.check(s, "ipv6 enable")
			}
			s.Close()
			for _, kind := range fuzz.PatternKinds() {
				s := load()
				if err := p.ApplyRepresentative(s); err != nil {
					t.Fatal(err)
				}
				cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
					Kind: kind, Table: p.BurstTable, Updates: catalogChurnLen, Seed: uint64(kind)*31 + 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, batch := range cs.Batches() {
					for j, d := range s.ApplyBatch(batch) {
						if d.Kind == core.Rejected {
							t.Fatalf("%s batch %d update %d rejected: %v", kind, i, j, d.Err)
						}
					}
					c.check(s, fmt.Sprintf("%s batch %d", kind, i))
				}
				s.Close()
			}
			states := make([]string, 0, len(c.reached))
			for st := range c.reached {
				states = append(states, st)
			}
			slices.Sort(states)
			t.Logf("%d points, %d frames; parser states reached: %s", c.points, c.frames, strings.Join(states, " "))
		})
	}
}

// nameSeed is a deterministic seed per program.
func nameSeed(name string) int64 {
	var h int64 = 17
	for _, c := range name {
		h = h*31 + int64(c)
	}
	return h
}

type catalogCheck struct {
	t       *testing.T
	r       *rand.Rand
	reached map[string]bool // parser states some frame reached, over all points
	points  int
	frames  int
}

// check compares the original and the specialized program at one point.
func (c *catalogCheck) check(s *core.Specializer, point string) {
	t := c.t
	t.Helper()
	spec := s.SpecializedProgram()
	if err := keepsExtracts(s.Prog, spec); err != nil {
		t.Errorf("%s: %v", point, err)
	}
	specInfo, err := typecheck.Check(spec)
	if err != nil {
		t.Fatalf("%s: specialized program fails typecheck: %v", point, err)
	}
	orig, specialized := New(s.Prog, s.Info, s.Cfg), New(spec, specInfo, s.Cfg)
	reached := map[string]bool{}
	orig.trace = func(st string) { reached[st] = true }
	for _, pd := range s.Prog.Parsers {
		g := &frameGen{r: c.r, prog: s.Prog, info: s.Info, cfg: s.Cfg, pd: pd}
		paths := parserPaths(pd, s.Cfg)
		frames := g.frames(paths)
		for _, pkt := range frames {
			r1, err1 := orig.Run(pkt)
			r2, err2 := specialized.Run(pkt)
			if (err1 == nil) != (err2 == nil) || err1 == nil && (!r1.Equal(r2) || r1.ParserRejected != r2.ParserRejected) {
				t.Fatalf("%s: frame %x on port %d:\noriginal:    %+v %v\nspecialized: %+v %v\nspecialized program:\n%s",
					point, pkt.Data, pkt.IngressPort, r1, err1, r2, err2, ast.Print(spec))
			}
		}
		for _, path := range paths {
			for _, st := range path {
				if !reached[st.st.Name] {
					t.Fatalf("%s: parser state %s is reachable under the live configuration, but no frame reached it",
						point, st.st.Name)
				}
			}
		}
		c.frames += len(frames)
	}
	for st := range reached {
		c.reached[st] = true
	}
	c.points++
}

// keepsExtracts reports the first state of the specialized parser
// whose extracts are not the original's, in order.
func keepsExtracts(orig, spec *ast.Program) error {
	if len(orig.Parsers) != len(spec.Parsers) {
		return fmt.Errorf("%d parsers, the original has %d", len(spec.Parsers), len(orig.Parsers))
	}
	for i, pd := range orig.Parsers {
		for _, st := range pd.States {
			ss := spec.Parsers[i].State(st.Name)
			if ss == nil {
				return fmt.Errorf("parser state %s is gone", st.Name)
			}
			if want, got := extracts(st), extracts(ss); !slices.Equal(want, got) {
				return fmt.Errorf("parser state %s extracts %v, the original %v", st.Name, got, want)
			}
		}
	}
	return nil
}

func extracts(st *ast.State) []string {
	var out []string
	for _, s := range st.Stmts {
		if call, ok := s.(*ast.CallStmt); ok {
			if m, ok := call.Call.Fun.(*ast.Member); ok && m.Name == "extract" {
				out = append(out, ast.ExprString(call.Call.Args[0]))
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Parser-path frames

// pathStep is one state of a parser path and the select case it takes:
// -1 when the state has no select, -2 when no case can match.
type pathStep struct {
	st *ast.State
	cs int
}

// Bounds on the path walk: parsers with loops are cut at maxPathLen
// states, and no parser yields more than maxPaths paths.
const (
	maxPathLen = 16
	maxPaths   = 128
)

// parserPaths lists the paths from start through the states the live
// configuration lets the parser reach: at each state one path per case
// that can match (a case on an empty value set never does), ending at
// accept or reject.
func parserPaths(pd *ast.ParserDecl, cfg *controlplane.Config) [][]pathStep {
	var out [][]pathStep
	var walk func(name string, path []pathStep)
	walk = func(name string, path []pathStep) {
		st := pd.State(name)
		if st == nil || len(path) == maxPathLen || len(out) == maxPaths {
			out = append(out, path)
			return
		}
		path = path[:len(path):len(path)]
		if st.Trans.Select == nil {
			walk(st.Trans.Next, append(path, pathStep{st, -1}))
			return
		}
		live := false
		for i, cs := range st.Trans.Cases {
			if caseCanMatch(pd, cs, cfg) {
				live = true
				walk(cs.Next, append(path, pathStep{st, i}))
			}
		}
		if !live {
			out = append(out, append(path, pathStep{st, -2}))
		}
	}
	walk("start", nil)
	return out
}

func caseCanMatch(pd *ast.ParserDecl, cs ast.SelectCase, cfg *controlplane.Config) bool {
	for _, ks := range cs.Keysets {
		if ks.Kind == ast.KeysetValueSet && len(cfg.ValueSet(pd.Name+"."+ks.Ref)) == 0 {
			return false
		}
	}
	return true
}

// framesPerPath is how many frames the generator lays out per parser
// path; one of them is also cut at every header boundary.
const framesPerPath = 6

// frameGen builds frames that walk chosen parser paths.
type frameGen struct {
	r    *rand.Rand
	prog *ast.Program
	info *typecheck.Info
	cfg  *controlplane.Config
	pd   *ast.ParserDecl
}

// frames lays out framesPerPath frames per path. Each sets the select
// fields to the case the path takes (a constant, or a member of an
// installed value set) and, half the time, fills the key fields of
// every configured table from one of its installed entries. The first
// frame of each path is also cut at every header boundary, and one
// byte short of it.
func (g *frameGen) frames(paths [][]pathStep) []Packet {
	var out []Packet
	for _, path := range paths {
		for i := 0; i < framesPerPath; i++ {
			f := g.layout(path)
			port := uint16(g.r.Intn(512))
			if g.r.Intn(2) == 0 {
				port = g.fillKeys(f, port)
			}
			if i == 0 {
				for _, end := range f.ends {
					out = append(out, Packet{Data: clone(f.buf[:(end+7)/8-1]), IngressPort: port})
					out = append(out, Packet{Data: clone(f.buf[:(end+7)/8]), IngressPort: port})
				}
			}
			payload := make([]byte, g.r.Intn(17))
			g.r.Read(payload)
			out = append(out, Packet{Data: append(f.buf, payload...), IngressPort: port})
		}
	}
	return out
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// frame is a packet under construction: its bytes, where each header
// instance was last extracted, and the bit offset at which each extract
// ends.
type frame struct {
	buf   []byte
	bits  int
	at    map[string]headerAt
	ends  []int
	fixed map[string]bool // fields that steer the path
}

type headerAt struct {
	off  int
	decl *ast.HeaderDecl
}

func (g *frameGen) layout(path []pathStep) *frame {
	f := &frame{at: map[string]headerAt{}, fixed: map[string]bool{}}
	for _, step := range path {
		for _, s := range step.st.Stmts {
			call, ok := s.(*ast.CallStmt)
			if !ok {
				continue
			}
			if m, ok := call.Call.Fun.(*ast.Member); !ok || m.Name != "extract" {
				continue
			}
			name, _ := typecheck.FieldPath(call.Call.Args[0])
			hdr := g.info.TypeOf(call.Call.Args[0]).Name
			f.at[name] = headerAt{off: f.bits, decl: g.prog.Header(hdr)}
			f.bits += g.info.HeaderBits[hdr]
			for len(f.buf)*8 < f.bits {
				f.buf = append(f.buf, byte(g.r.Intn(256)))
			}
			f.ends = append(f.ends, f.bits)
		}
		if step.cs >= 0 {
			g.steer(f, step.st.Trans, step.cs)
		}
	}
	return f
}

// steer writes the select fields so that the transition takes case cs.
func (g *frameGen) steer(f *frame, tr ast.Transition, cs int) {
	for ki, ks := range tr.Cases[cs].Keysets {
		key := tr.Select[ki]
		path, ok := typecheck.FieldPath(key)
		if !ok {
			continue
		}
		w := uint16(g.info.TypeOf(key).Width)
		var v sym.BV
		switch ks.Kind {
		case ast.KeysetValue:
			v, ok = literal(ks.Value, w)
		case ast.KeysetMask:
			var val, mask sym.BV
			if val, ok = literal(ks.Value, w); ok {
				if mask, ok = literal(ks.Mask, w); ok {
					v = masked(val, mask, g.random(w))
				}
			}
		case ast.KeysetValueSet:
			members := g.cfg.ValueSet(g.pd.Name + "." + ks.Ref)
			m := members[g.r.Intn(len(members))]
			v = m.Value
			if m.Mask.W != 0 {
				v = masked(m.Value, m.Mask, g.random(w))
			}
		case ast.KeysetDefault:
			// A value no earlier constant case takes.
			v = g.random(w)
			for tries := 0; tries < 8 && takenEarlier(tr, cs, ki, v); tries++ {
				v = g.random(w)
			}
		}
		if ok && f.write(path, v, g.info) {
			f.fixed[path] = true
		}
	}
}

// takenEarlier reports whether v on key ki equals a constant of a case
// before cs.
func takenEarlier(tr ast.Transition, cs, ki int, v sym.BV) bool {
	for _, c := range tr.Cases[:cs] {
		if ki < len(c.Keysets) && c.Keysets[ki].Kind == ast.KeysetValue {
			if lit, ok := literal(c.Keysets[ki].Value, v.W); ok && lit == v {
				return true
			}
		}
	}
	return false
}

// fillKeys sets the key fields of every table with installed entries to
// one of its entries' keys, leaving the fields that steer the path as
// they are. It returns the ingress port, which a key may also set.
func (g *frameGen) fillKeys(f *frame, port uint16) uint16 {
	for _, cd := range g.prog.Controls {
		for _, tb := range cd.Tables {
			entries := g.cfg.Entries(cd.Name + "." + tb.Name)
			if len(entries) == 0 {
				continue
			}
			e := entries[g.r.Intn(len(entries))]
			for ki, k := range tb.Keys {
				path, ok := typecheck.FieldPath(k.Expr)
				if !ok || ki >= len(e.Matches) || f.fixed[path] {
					continue
				}
				m := e.Matches[ki]
				v := m.Value
				switch m.Kind {
				case controlplane.MatchTernary:
					v = masked(m.Value, m.Mask, g.random(v.W))
				case controlplane.MatchLPM:
					mask := sym.BV{W: v.W}
					if m.PrefixLen > 0 {
						mask = sym.AllOnes(v.W).Shl(uint(int(v.W) - m.PrefixLen))
					}
					v = masked(m.Value, mask, g.random(v.W))
				case controlplane.MatchOptional:
					if m.Wildcard {
						v = g.random(v.W)
					}
				}
				if !f.write(path, v, g.info) && strings.HasSuffix(path, ".ingress_port") {
					port = uint16(v.Uint64())
				}
			}
		}
	}
	return port
}

func (g *frameGen) random(w uint16) sym.BV { return sym.NewBV2(w, g.r.Uint64(), g.r.Uint64()) }

// masked is v on the bits of mask and rest elsewhere.
func masked(v, mask, rest sym.BV) sym.BV { return v.And(mask).Or(rest.And(mask.Not())) }

// literal is the value of a constant keyset expression at width w.
func literal(e ast.Expr, w uint16) (sym.BV, bool) {
	lit, ok := e.(*ast.IntLit)
	if !ok {
		return sym.BV{}, false
	}
	return sym.NewBV2(w, lit.Hi, lit.Lo), true
}

// write stores v into the header field at path, MSB first, if the frame
// holds that header.
func (f *frame) write(path string, v sym.BV, info *typecheck.Info) bool {
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 {
		return false
	}
	h, ok := f.at[path[:dot]]
	if !ok || h.decl == nil {
		return false
	}
	off := h.off
	for _, fd := range h.decl.Fields {
		w := info.Resolve(fd.Type).Width
		if fd.Name != path[dot+1:] {
			off += w
			continue
		}
		if w != int(v.W) {
			return false
		}
		for i := 0; i < w; i++ {
			bit := v.Lshr(uint(w-1-i)).Lo & 1
			b, sh := (off+i)/8, 7-uint((off+i)%8)
			f.buf[b] = f.buf[b]&^(1<<sh) | byte(bit)<<sh
		}
		return true
	}
	return false
}

// TestScionHopFrames pins two frames through scion's parse_scion state,
// after the representative configuration and again after the IPv6
// enable. The first carries hop.cons_ingress = 40 at the hop field's
// offset, which the representative configuration validates; the second
// is cut one byte short of the hop field, so the original's parser
// rejects it. A parser that skipped scion_addr and path_meta would read
// the hop field 20 bytes early from the first and accept the second.
func TestScionHopFrames(t *testing.T) {
	p := progs.Scion()
	s, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hop := scionHopFrame()
	frames := []struct {
		name   string
		data   []byte
		reject bool
	}{
		{"cons_ingress=40", hop, false},
		{"one byte short of hop", hop[:len(hop)-scionPayload-1], true},
	}
	check := func(point string) {
		spec := s.SpecializedProgram()
		specInfo, err := typecheck.Check(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			reached := false
			orig := New(s.Prog, s.Info, s.Cfg)
			orig.trace = func(st string) { reached = reached || st == "parse_scion" }
			pkt := Packet{Data: f.data, IngressPort: 1}
			want, err1 := orig.Run(pkt)
			got, err2 := New(spec, specInfo, s.Cfg).Run(pkt)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s, %s: %v / %v", point, f.name, err1, err2)
			}
			if !reached || want.ParserRejected != f.reject {
				t.Fatalf("%s, %s: the original reached parse_scion %v and rejected %v, want true and %v",
					point, f.name, reached, want.ParserRejected, f.reject)
			}
			if !want.Equal(got) || want.ParserRejected != got.ParserRejected {
				t.Fatalf("%s, %s:\noriginal:    %+v\nspecialized: %+v", point, f.name, want, got)
			}
		}
	}
	if err := p.ApplyRepresentative(s); err != nil {
		t.Fatal(err)
	}
	check("representative")
	for _, u := range p.IPv6Enable() {
		if d := s.Apply(u); d.Kind == core.Rejected {
			t.Fatalf("ipv6 enable rejected: %v", d.Err)
		}
	}
	check("ipv6 enable")
}

// scionPayload is the payload after the hop field in scionHopFrame.
const scionPayload = 8

// scionHopFrame is eth/IPv4 (protocol 17)/UDP to port 50000, then 52
// zero bytes: scion (12), scion_addr (16), path_meta (4) and hop (12),
// with hop.cons_ingress = 0x0028 at bytes 34–35, and 8 bytes of
// payload.
func scionHopFrame() []byte {
	const udp, scion = 14 + 20, 14 + 20 + 8
	f := make([]byte, scion+44+scionPayload)
	f[12], f[13] = 0x08, 0x00 // eth.type: IPv4
	f[14] = 0x45              // version 4, ihl 5
	f[14+9] = 17              // ipv4.protocol: UDP
	f[udp+2], f[udp+3] = 0xc3, 0x50
	f[scion+34], f[scion+35] = 0x00, 0x28
	return f
}
