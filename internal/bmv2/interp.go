// Package bmv2 is a concrete reference interpreter for goflay's P4
// subset, in the role BMv2 plays for P4C: it parses packet bytes through
// the parser FSM, matches tables against the actual control-plane
// configuration (exact/lpm/ternary with priorities), executes actions,
// and deparses valid headers followed by the unparsed payload.
//
// Its purpose is differential testing: a specialized program must
// produce the same observable result as the original program under the
// configuration it was specialized for.
package bmv2

import (
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// Packet is the input to one pipeline pass.
type Packet struct {
	Data        []byte
	IngressPort uint16
}

// Result is the observable outcome of one pipeline pass.
type Result struct {
	// Dropped is true when the packet was marked to drop or the parser
	// rejected it.
	Dropped bool
	// ParserRejected distinguishes parser rejects from explicit drops.
	ParserRejected bool
	EgressPort     uint64
	McastGrp       uint64
	// Emitted is the deparsed output: every valid header's fields (in
	// headers-struct order) followed by the unparsed payload. Nil when
	// dropped.
	Emitted []byte
}

// Equal reports whether two results are observably identical.
func (r Result) Equal(o Result) bool {
	if r.Dropped != o.Dropped {
		return false
	}
	if r.Dropped {
		return true
	}
	if r.EgressPort != o.EgressPort || r.McastGrp != o.McastGrp {
		return false
	}
	if len(r.Emitted) != len(o.Emitted) {
		return false
	}
	for i := range r.Emitted {
		if r.Emitted[i] != o.Emitted[i] {
			return false
		}
	}
	return true
}

// Interp interprets one program under one configuration. Register state
// persists across Run calls (like a real switch); use Reset to clear it.
type Interp struct {
	prog *ast.Program
	info *typecheck.Info
	cfg  *controlplane.Config

	registers map[string][]sym.BV
	// trace, when set, sees every parser state a run enters.
	trace func(state string)

	// Per-run state.
	store   map[string]sym.BV
	scopes  []map[string]value
	cursor  int // parse cursor in bits
	data    []byte
	exited  bool
	control *ast.ControlDecl
}

// value resolves an identifier: a store slot or a bound parameter value.
type value struct {
	slot  string
	bound sym.BV
	isVal bool
}

// New builds an interpreter. cfg may be nil for the empty configuration.
// The cfg's table names are qualified ("Control.table") and must match
// the tables present in prog; entries for tables the (specialized)
// program no longer contains are ignored.
func New(prog *ast.Program, info *typecheck.Info, cfg *controlplane.Config) *Interp {
	in := &Interp{prog: prog, info: info, cfg: cfg}
	in.Reset()
	return in
}

// Reset clears register state (applying configured fills).
func (in *Interp) Reset() {
	in.registers = make(map[string][]sym.BV)
	for _, cd := range in.prog.Controls {
		for _, r := range cd.Registers {
			q := cd.Name + "." + r.Name
			t := in.info.Resolve(r.Elem)
			cells := make([]sym.BV, r.Size)
			fill := sym.BV{W: uint16(t.Width)}
			if in.cfg != nil {
				if f, ok := in.cfg.RegisterFill(q); ok {
					fill = f
				}
			}
			for i := range cells {
				cells[i] = fill
			}
			in.registers[q] = cells
		}
	}
}

type runErr struct{ msg string }

func (e *runErr) Error() string { return "bmv2: " + e.msg }

func fail(format string, args ...any) error {
	return &runErr{msg: fmt.Sprintf(format, args...)}
}

// Run processes one packet through the parser and every control.
func (in *Interp) Run(pkt Packet) (Result, error) {
	in.store = make(map[string]sym.BV, 64)
	in.scopes = []map[string]value{make(map[string]value)}
	in.exited = false
	in.data = pkt.Data
	in.cursor = 0

	// Seed parameters (same sharing-by-name convention as the
	// analyzer).
	seeded := map[string]bool{}
	seed := func(params []ast.Param) error {
		for _, p := range params {
			t := in.info.Resolve(p.Type)
			if t.Kind == typecheck.KPacket {
				in.scopes[0][p.Name] = value{slot: "$packet"}
				continue
			}
			if seeded[p.Name] {
				continue
			}
			seeded[p.Name] = true
			in.scopes[0][p.Name] = value{slot: p.Name}
			if err := in.seedRoot(p.Name, t); err != nil {
				return err
			}
		}
		return nil
	}
	for _, pd := range in.prog.Parsers {
		if err := seed(pd.Params); err != nil {
			return Result{}, err
		}
	}
	for _, cd := range in.prog.Controls {
		if err := seed(cd.Params); err != nil {
			return Result{}, err
		}
	}
	// Environment inputs land in whichever parameter carries the
	// standard metadata.
	for name := range seeded {
		if _, ok := in.store[name+".ingress_port"]; ok {
			in.store[name+".ingress_port"] = sym.NewBV(9, uint64(pkt.IngressPort)%512)
		}
		if _, ok := in.store[name+".packet_length"]; ok {
			in.store[name+".packet_length"] = sym.NewBV(32, uint64(len(pkt.Data)))
		}
	}

	// Parser.
	if len(in.prog.Parsers) == 1 {
		ok, err := in.runParser(in.prog.Parsers[0])
		if err != nil {
			return Result{}, err
		}
		if !ok {
			return Result{Dropped: true, ParserRejected: true}, nil
		}
	}

	// Controls.
	for _, cd := range in.prog.Controls {
		in.control = cd
		in.exited = false
		in.pushScope()
		for _, v := range cd.Locals {
			if err := in.declVar(v); err != nil {
				return Result{}, err
			}
		}
		for _, r := range cd.Registers {
			in.scopes[len(in.scopes)-1][r.Name] = value{slot: "$register:" + cd.Name + "." + r.Name}
		}
		if err := in.stmt(cd.Apply); err != nil {
			return Result{}, err
		}
		in.popScope()
	}

	res := Result{}
	std := in.stdRoot()
	if v, ok := in.store[std+".drop"]; ok && !v.IsZero() {
		res.Dropped = true
		return res, nil
	}
	if v, ok := in.store[std+".egress_port"]; ok {
		res.EgressPort = v.Uint64()
	}
	if v, ok := in.store[std+".mcast_grp"]; ok {
		res.McastGrp = v.Uint64()
	}
	res.Emitted = in.deparse()
	return res, nil
}

// stdRoot returns the name of the standard-metadata parameter ("std" by
// convention, but resolved by type).
func (in *Interp) stdRoot() string {
	check := func(params []ast.Param) string {
		for _, p := range params {
			t := in.info.Resolve(p.Type)
			if t.Kind == typecheck.KStruct && t.Name == "standard_metadata_t" {
				return p.Name
			}
		}
		return ""
	}
	for _, pd := range in.prog.Parsers {
		if n := check(pd.Params); n != "" {
			return n
		}
	}
	for _, cd := range in.prog.Controls {
		if n := check(cd.Params); n != "" {
			return n
		}
	}
	return "std"
}

// seedRoot initialises the store for one pipeline parameter.
func (in *Interp) seedRoot(path string, t typecheck.T) error {
	switch t.Kind {
	case typecheck.KHeader:
		h := in.prog.Header(t.Name)
		in.store[path+".$valid"] = sym.Bool(false)
		for _, f := range h.Fields {
			ft := in.info.Resolve(f.Type)
			in.store[path+"."+f.Name] = sym.BV{W: uint16(ft.Width)}
		}
		return nil
	case typecheck.KStruct:
		s := in.prog.Struct(t.Name)
		for _, f := range s.Fields {
			ft := in.info.Resolve(f.Type)
			fp := path + "." + f.Name
			switch ft.Kind {
			case typecheck.KBits:
				in.store[fp] = sym.BV{W: uint16(ft.Width)}
			case typecheck.KBool:
				in.store[fp] = sym.Bool(false)
			case typecheck.KHeader, typecheck.KStruct:
				if err := in.seedRoot(fp, ft); err != nil {
					return err
				}
			default:
				return fail("unsupported field type at %s", fp)
			}
		}
		return nil
	case typecheck.KBits:
		in.store[path] = sym.BV{W: uint16(t.Width)}
		return nil
	case typecheck.KBool:
		in.store[path] = sym.Bool(false)
		return nil
	default:
		return fail("unsupported parameter type %s", t)
	}
}

// deparse emits every valid header (fields MSB-first in declaration
// order) in headers-struct field order, then the unparsed payload.
func (in *Interp) deparse() []byte {
	var w bitWriter
	emitted := map[string]bool{}
	var emitRoot func(path string, t typecheck.T)
	emitRoot = func(path string, t typecheck.T) {
		switch t.Kind {
		case typecheck.KHeader:
			if emitted[path] {
				return
			}
			emitted[path] = true
			if v, ok := in.store[path+".$valid"]; !ok || v.IsZero() {
				return
			}
			h := in.prog.Header(t.Name)
			for _, f := range h.Fields {
				ft := in.info.Resolve(f.Type)
				w.write(in.store[path+"."+f.Name], uint(ft.Width))
			}
		case typecheck.KStruct:
			if t.Name == "standard_metadata_t" {
				return
			}
			s := in.prog.Struct(t.Name)
			for _, f := range s.Fields {
				ft := in.info.Resolve(f.Type)
				if ft.Kind == typecheck.KHeader || ft.Kind == typecheck.KStruct {
					emitRoot(path+"."+f.Name, ft)
				}
			}
		}
	}
	// Roots in parser-then-control parameter order, first occurrence of
	// each name.
	seen := map[string]bool{}
	var roots []ast.Param
	for _, pd := range in.prog.Parsers {
		roots = append(roots, pd.Params...)
	}
	for _, cd := range in.prog.Controls {
		roots = append(roots, cd.Params...)
	}
	for _, p := range roots {
		if seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		emitRoot(p.Name, in.info.Resolve(p.Type))
	}
	out := w.bytes()
	// Payload: whatever the parser did not consume (bit-aligned to the
	// byte boundary).
	if in.cursor%8 == 0 && in.cursor/8 <= len(in.data) {
		out = append(out, in.data[in.cursor/8:]...)
	}
	return out
}

// bitWriter packs MSB-first bit strings into bytes.
type bitWriter struct {
	buf  []byte
	nbit uint
}

func (w *bitWriter) write(v sym.BV, width uint) {
	for i := int(width) - 1; i >= 0; i-- {
		bit := byte(0)
		if v.Bit(uint16(i)) {
			bit = 1
		}
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[len(w.buf)-1] |= bit << (7 - w.nbit%8)
		w.nbit++
	}
}

func (w *bitWriter) bytes() []byte { return w.buf }

// readBits consumes width bits from the packet, MSB-first.
func (in *Interp) readBits(width uint16) (sym.BV, bool) {
	if in.cursor+int(width) > len(in.data)*8 {
		return sym.BV{}, false
	}
	v := sym.BV{W: width}
	for i := 0; i < int(width); i++ {
		byteIdx := (in.cursor + i) / 8
		bitIdx := 7 - uint((in.cursor+i)%8)
		if in.data[byteIdx]>>bitIdx&1 == 1 {
			shift := uint(int(width) - 1 - i)
			one := sym.NewBV(width, 1).Shl(shift)
			v = v.Or(one)
		}
	}
	in.cursor += int(width)
	return v, true
}
