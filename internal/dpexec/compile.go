package dpexec

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/controlplane"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// compileCtx is the slot layout and AST context shared by an image and
// every incremental rebuild derived from it. It is immutable after the
// full compile: the prewalk pass pre-allocates every slot any action
// body could need, so entry-block compilation (full or incremental)
// only ever looks slots up. That invariant is what makes a WithTarget
// chain hash-identical to a from-scratch Compile.
type compileCtx struct {
	prog     *ast.Program
	info     *typecheck.Info
	slots    map[string]int32
	names    []string // names[s] is the path slot s was allocated for
	slotInit []sym.BV
	// prewalk counts the slots seeding and the prewalk allocated: every
	// slot an entry block reads or writes. The main pass's `$sel:` and
	// `$key:` slots come after them.
	prewalk int
}

func (cc *compileCtx) alloc(path string, init sym.BV) int32 {
	if s, ok := cc.slots[path]; ok {
		return s
	}
	s := int32(len(cc.slotInit))
	cc.slots[path] = s
	cc.names = append(cc.names, path)
	cc.slotInit = append(cc.slotInit, init)
	return s
}

// blocksPortable reports whether an entry block compiled under o
// addresses the same slots under cc: the two prewalk layouts agree in
// every name and initial value.
func (cc *compileCtx) blocksPortable(o *compileCtx) bool {
	return cc.prewalk == o.prewalk &&
		slices.Equal(cc.names[:cc.prewalk], o.names[:o.prewalk]) &&
		slices.Equal(cc.slotInit[:cc.prewalk], o.slotInit[:o.prewalk])
}

func (cc *compileCtx) slot(path string) (int32, bool) {
	s, ok := cc.slots[path]
	return s, ok
}

// binding resolves an identifier during compilation.
const (
	bindPath     uint8 = iota // assignable store path (params, locals)
	bindVal                   // read-only slot (dynamic action argument)
	bindConst                 // compile-time constant (bound action param)
	bindRegister              // register array index
	bindPacket                // the packet parameter
)

type binding struct {
	kind uint8
	path string
	k    sym.BV
	reg  int32
	slot int32 // bindVal: the spill slot holding the argument
}

// cv is a compiled expression: either a compile-time constant (no code
// emitted) or a dynamic value left on the stack by emitted code.
type cv struct {
	c bool
	k sym.BV
}

func constCV(k sym.BV) cv { return cv{c: true, k: k} }

var dyn = cv{}

// argVal is one compiled action argument: a constant or a slot holding
// the evaluated value.
type argVal struct {
	c    bool
	k    sym.BV
	slot int32
}

// asm is one code segment under construction with its constant pool.
type asm struct {
	code   []instr
	consts []sym.BV
	cmap   map[sym.BV]int32
}

func newAsm() *asm { return &asm{cmap: make(map[sym.BV]int32)} }

func (a *asm) emit(op uint8, x, y, z int32) int {
	a.code = append(a.code, instr{op: op, a: x, b: y, c: z})
	return len(a.code) - 1
}

func (a *asm) constIdx(v sym.BV) int32 {
	if i, ok := a.cmap[v]; ok {
		return i
	}
	i := int32(len(a.consts))
	a.consts = append(a.consts, v)
	a.cmap[v] = i
	return i
}

type compiler struct {
	cc      *compileCtx
	cfg     *controlplane.Config
	img     *Image
	asm     *asm
	scopes  []map[string]binding
	control *ast.ControlDecl
	inBlock bool
	exitFix []int // opExit instrs awaiting the control-end pc in .a
	tblFix  []int // opTable instrs awaiting the control-end pc in .c
	trapIdx map[string]int32
	// prev is the predecessor whose tables may be carried (Recompile):
	// nil when there is none or its entry blocks would not port.
	prev *Image
}

func cerr(format string, args ...any) error {
	return fmt.Errorf("dpexec: %s", fmt.Sprintf(format, args...))
}

func (c *compiler) pushScope()                  { c.scopes = append(c.scopes, make(map[string]binding)) }
func (c *compiler) popScope()                   { c.scopes = c.scopes[:len(c.scopes)-1] }
func (c *compiler) bind(name string, b binding) { c.scopes[len(c.scopes)-1][name] = b }

func (c *compiler) lookup(name string) (binding, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if b, ok := c.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (c *compiler) widthOf(e ast.Expr) uint16 {
	return uint16(c.cc.info.TypeOf(e).Width)
}

func (c *compiler) trap(msg string) int32 {
	if c.inBlock {
		// A block indexing img.traps could not be carried into an image
		// with other traps; entry blocks carry their traps as strings.
		panic("entry block allocates a trap")
	}
	if i, ok := c.trapIdx[msg]; ok {
		return i
	}
	i := int32(len(c.img.traps))
	c.img.traps = append(c.img.traps, msg)
	c.trapIdx[msg] = i
	return i
}

// mat materializes a cv onto the stack (no-op for dynamic values, which
// are already there).
func (c *compiler) mat(v cv) {
	if v.c {
		c.asm.emit(opPushC, c.asm.constIdx(v.k), 0, 0)
	}
}

func (c *compiler) snapshotScopes() []map[string]binding {
	env := make([]map[string]binding, len(c.scopes))
	for i, sc := range c.scopes {
		m := make(map[string]binding, len(sc))
		for k, v := range sc {
			m[k] = v
		}
		env[i] = m
	}
	return env
}

// sameScope reports whether two captured scope stacks bind every name
// alike: they are equal once the scopes binding nothing are skipped.
func sameScope(a, b []map[string]binding) bool {
	for i, j := 0, 0; ; i, j = i+1, j+1 {
		for i < len(a) && len(a[i]) == 0 {
			i++
		}
		for j < len(b) && len(b[j]) == 0 {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if !maps.Equal(a[i], b[j]) {
			return false
		}
	}
}

// runParser returns the parser that Run would execute (exactly one
// declared), mirroring bmv2.
func runParser(prog *ast.Program) *ast.ParserDecl {
	if len(prog.Parsers) == 1 {
		return prog.Parsers[0]
	}
	return nil
}

// Compile translates prog under cfg into an executable image. The
// program must have passed typecheck with the supplied info; cfg may be
// nil for the empty configuration. The observable semantics of the
// image are exactly those of bmv2.New(prog, info, cfg). It is Recompile
// with no predecessor.
func Compile(prog *ast.Program, info *typecheck.Info, cfg *controlplane.Config) (*Image, error) {
	var none *Image
	return none.Recompile(prog, info, cfg)
}

// Recompile translates prog under cfg into an executable image, the
// receiver being its predecessor: the image of another (typically the
// previous specialized) program, nil for none. The main code is
// compiled anew; a table is built as a delta against the predecessor's
// table of the same name (buildExTable) when its compile context held —
// entry blocks address the same slots (the prewalk layouts agree), the
// key slots and widths and the apply-site scope are equal — and each
// carried entry still resolves to the action it was compiled from.
// Anything else starts from an empty predecessor. The result hashes
// exactly like Compile's, whatever the predecessor; the receiver is
// never mutated.
func (prev *Image) Recompile(prog *ast.Program, info *typecheck.Info, cfg *controlplane.Config) (img *Image, err error) {
	// sym.BV operations panic on width mismatches that only a
	// non-typechecked program can produce; surface those as errors so
	// fuzzers get a clean failure instead of a crash.
	defer func() {
		if r := recover(); r != nil {
			img, err = nil, cerr("compile panic: %v", r)
		}
	}()

	cc := &compileCtx{prog: prog, info: info, slots: make(map[string]int32)}
	img = &Image{
		cc:         cc,
		tableIdx:   make(map[string]int),
		vsetIdx:    make(map[string]int),
		regIdx:     make(map[string]int),
		dropSlot:   -1,
		egressSlot: -1,
		mcastSlot:  -1,
	}
	c := &compiler{
		cc:      cc,
		cfg:     cfg,
		img:     img,
		asm:     newAsm(),
		scopes:  []map[string]binding{make(map[string]binding)},
		trapIdx: make(map[string]int32),
	}

	// 1. Seed parameters, sharing storage by name like the analyzer and
	// bmv2 do.
	var seededNames []string
	seededSet := map[string]bool{}
	seed := func(params []ast.Param) error {
		for _, p := range params {
			t := info.Resolve(p.Type)
			if t.Kind == typecheck.KPacket {
				c.scopes[0][p.Name] = binding{kind: bindPacket}
				continue
			}
			if seededSet[p.Name] {
				continue
			}
			seededSet[p.Name] = true
			seededNames = append(seededNames, p.Name)
			c.scopes[0][p.Name] = binding{kind: bindPath, path: p.Name}
			if err := c.seedRoot(p.Name, t); err != nil {
				return err
			}
		}
		return nil
	}
	for _, pd := range prog.Parsers {
		if err := seed(pd.Params); err != nil {
			return nil, err
		}
	}
	for _, cd := range prog.Controls {
		if err := seed(cd.Params); err != nil {
			return nil, err
		}
	}

	// 2. Prewalk: allocate every local/temp slot any statement could
	// need, in pure AST order, so later compilation (including
	// incremental entry-block rebuilds) never allocates.
	c.prewalk()
	cc.prewalk = len(cc.slotInit)
	if prev != nil && prev.cc.blocksPortable(cc) {
		c.prev = prev
	}

	// 3. Environment inputs.
	for _, name := range seededNames {
		if s, ok := cc.slot(name + ".ingress_port"); ok {
			img.portSlots = append(img.portSlots, s)
		}
		if s, ok := cc.slot(name + ".packet_length"); ok {
			img.lenSlots = append(img.lenSlots, s)
		}
	}

	// 4. Main code: parser FSM, then each control.
	var acceptJ = -1
	if pd := runParser(prog); pd != nil {
		if acceptJ, err = c.compileParser(pd); err != nil {
			return nil, err
		}
	}
	if acceptJ >= 0 {
		c.asm.code[acceptJ].a = int32(len(c.asm.code))
	}
	for _, cd := range prog.Controls {
		if err := c.compileControl(cd); err != nil {
			return nil, err
		}
	}

	img.code = c.asm.code
	img.consts = c.asm.consts
	img.slotInit = cc.slotInit

	// 5. Result extraction and the deparse plan.
	std := stdRoot(prog, info)
	if s, ok := cc.slot(std + ".drop"); ok {
		img.dropSlot = s
	}
	if s, ok := cc.slot(std + ".egress_port"); ok {
		img.egressSlot = s
	}
	if s, ok := cc.slot(std + ".mcast_grp"); ok {
		img.mcastSlot = s
	}
	img.deparse = buildDeparse(cc)

	// 6. Content hashes.
	img.codeHash = img.hashCode()
	img.rehash()
	return img, nil
}

// seedRoot mirrors bmv2's store seeding for one pipeline parameter.
func (c *compiler) seedRoot(path string, t typecheck.T) error {
	cc := c.cc
	switch t.Kind {
	case typecheck.KHeader:
		h := cc.prog.Header(t.Name)
		cc.alloc(path+".$valid", sym.Bool(false))
		for _, f := range h.Fields {
			ft := cc.info.Resolve(f.Type)
			cc.alloc(path+"."+f.Name, sym.BV{W: uint16(ft.Width)})
		}
		return nil
	case typecheck.KStruct:
		s := cc.prog.Struct(t.Name)
		for _, f := range s.Fields {
			ft := cc.info.Resolve(f.Type)
			fp := path + "." + f.Name
			switch ft.Kind {
			case typecheck.KBits:
				cc.alloc(fp, sym.BV{W: uint16(ft.Width)})
			case typecheck.KBool:
				cc.alloc(fp, sym.Bool(false))
			case typecheck.KHeader, typecheck.KStruct:
				if err := c.seedRoot(fp, ft); err != nil {
					return err
				}
			default:
				return cerr("unsupported field type at %s", fp)
			}
		}
		return nil
	case typecheck.KBits:
		cc.alloc(path, sym.BV{W: uint16(t.Width)})
		return nil
	case typecheck.KBool:
		cc.alloc(path, sym.Bool(false))
		return nil
	default:
		return cerr("unsupported parameter type %s", t)
	}
}

// stdRoot mirrors bmv2's standard-metadata parameter resolution.
func stdRoot(prog *ast.Program, info *typecheck.Info) string {
	check := func(params []ast.Param) string {
		for _, p := range params {
			t := info.Resolve(p.Type)
			if t.Kind == typecheck.KStruct && t.Name == "standard_metadata_t" {
				return p.Name
			}
		}
		return ""
	}
	for _, pd := range prog.Parsers {
		if n := check(pd.Params); n != "" {
			return n
		}
	}
	for _, cd := range prog.Controls {
		if n := check(cd.Params); n != "" {
			return n
		}
	}
	return "std"
}

// buildDeparse precomputes the deparse plan with bmv2's traversal:
// parser-then-control parameter order, first occurrence of each name,
// every header once, skipping standard metadata.
func buildDeparse(cc *compileCtx) []deparseHeader {
	var plan []deparseHeader
	emitted := map[string]bool{}
	var emitRoot func(path string, t typecheck.T)
	emitRoot = func(path string, t typecheck.T) {
		switch t.Kind {
		case typecheck.KHeader:
			if emitted[path] {
				return
			}
			emitted[path] = true
			vs, ok := cc.slot(path + ".$valid")
			if !ok {
				return
			}
			h := cc.prog.Header(t.Name)
			dh := deparseHeader{validSlot: vs}
			for _, f := range h.Fields {
				ft := cc.info.Resolve(f.Type)
				fs, ok := cc.slot(path + "." + f.Name)
				if !ok {
					return
				}
				dh.fields = append(dh.fields, fieldRef{slot: fs, w: uint16(ft.Width)})
			}
			plan = append(plan, dh)
		case typecheck.KStruct:
			if t.Name == "standard_metadata_t" {
				return
			}
			s := cc.prog.Struct(t.Name)
			for _, f := range s.Fields {
				ft := cc.info.Resolve(f.Type)
				if ft.Kind == typecheck.KHeader || ft.Kind == typecheck.KStruct {
					emitRoot(path+"."+f.Name, ft)
				}
			}
		}
	}
	seen := map[string]bool{}
	var roots []ast.Param
	for _, pd := range cc.prog.Parsers {
		roots = append(roots, pd.Params...)
	}
	for _, cd := range cc.prog.Controls {
		roots = append(roots, cd.Params...)
	}
	for _, p := range roots {
		if seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		emitRoot(p.Name, cc.info.Resolve(p.Type))
	}
	return plan
}

// ---------------------------------------------------------------------------
// Prewalk: deterministic slot pre-allocation

func localKey(v *ast.VarDecl) string { return "$local:" + v.Name + ":" + v.Pos().String() }

func argKey(pos string, i int) string { return "$arg:" + pos + ":" + strconv.Itoa(i) }

func chkKey(pos string) string { return "$chk:" + pos }

// prewalk allocates slots for every local variable, dynamic action
// argument, checksum temporary, mark_to_drop flag and setValid target
// in the program — independent of the configuration, in declaration
// order. Prewalk failures are deliberately silent: anything it cannot
// resolve will produce a proper compile error when (and if) the main
// pass reaches it.
func (c *compiler) prewalk() {
	w := &prewalker{c: c}
	if pd := runParser(c.cc.prog); pd != nil {
		for _, st := range pd.States {
			w.push()
			for _, s := range st.Stmts {
				w.stmt(s)
			}
			for _, e := range st.Trans.Select {
				w.expr(e)
			}
			for _, cs := range st.Trans.Cases {
				for _, ks := range cs.Keysets {
					if ks.Value != nil {
						w.expr(ks.Value)
					}
					if ks.Mask != nil {
						w.expr(ks.Mask)
					}
				}
			}
			w.pop()
		}
	}
	for _, cd := range c.cc.prog.Controls {
		w.push()
		for _, v := range cd.Locals {
			w.stmt(v)
		}
		w.stmt(cd.Apply)
		for _, act := range cd.Actions {
			w.push()
			w.stmt(act.Body)
			w.pop()
		}
		for _, tbl := range cd.Tables {
			for _, k := range tbl.Keys {
				w.expr(k.Expr)
			}
			if tbl.Default != nil {
				q := cd.Name + "." + tbl.Name
				for i, a := range tbl.Default.Args {
					w.expr(a)
					c.cc.alloc(argKey("default:"+q, i), sym.BV{})
				}
			}
		}
		w.pop()
	}
}

type prewalker struct {
	c      *compiler
	frames []map[string]string // local name -> slot path
}

func (w *prewalker) push() { w.frames = append(w.frames, map[string]string{}) }
func (w *prewalker) pop()  { w.frames = w.frames[:len(w.frames)-1] }

// path resolves an lvalue textually for drop/valid slot pre-allocation;
// empty string when unresolvable (main compile will report it).
func (w *prewalker) path(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		for i := len(w.frames) - 1; i >= 0; i-- {
			if p, ok := w.frames[i][e.Name]; ok {
				return p
			}
		}
		if b, ok := w.c.scopes[0][e.Name]; ok && b.kind == bindPath {
			return b.path
		}
		return ""
	case *ast.Member:
		base := w.path(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Name
	default:
		return ""
	}
}

func (w *prewalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.push()
		for _, inner := range s.Stmts {
			w.stmt(inner)
		}
		w.pop()
	case *ast.VarDecl:
		if s.Init != nil {
			w.expr(s.Init)
		}
		key := localKey(s)
		w.c.cc.alloc(key, sym.BV{})
		w.frames[len(w.frames)-1][s.Name] = key
	case *ast.AssignStmt:
		w.expr(s.RHS)
	case *ast.IfStmt:
		w.expr(s.Cond)
		w.stmt(s.Then)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.CallStmt:
		w.call(s.Call)
	}
}

func (w *prewalker) call(call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "mark_to_drop":
			if len(call.Args) == 1 {
				if p := w.path(call.Args[0]); p != "" {
					w.c.cc.alloc(p+".drop", sym.BV{})
				}
			}
		case "count":
		default:
			pos := call.Pos().String()
			for i, a := range call.Args {
				w.expr(a)
				w.c.cc.alloc(argKey(pos, i), sym.BV{})
			}
		}
	case *ast.Member:
		switch fun.Name {
		case "setValid", "setInvalid":
			if p := w.path(fun.X); p != "" {
				w.c.cc.alloc(p+".$valid", sym.Bool(false))
			}
		default:
			for _, a := range call.Args {
				w.expr(a)
			}
		}
	}
}

func (w *prewalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "checksum16" {
			w.c.cc.alloc(chkKey(e.Pos().String()), sym.BV{})
		}
		for _, a := range e.Args {
			w.expr(a)
		}
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.TernaryExpr:
		w.expr(e.Cond)
		w.expr(e.Then)
		w.expr(e.Else)
	case *ast.SliceExpr:
		w.expr(e.X)
	case *ast.Member:
		w.expr(e.X)
	}
}
