// Package dpexec is goflay's data-plane executor: it compiles a P4
// program (generic or specialized) under one control-plane
// configuration into a flattened match-action bytecode image and runs
// packets through it with a tight, allocation-free interpreter loop.
//
// The compiler plays the role a JIT plays in Morpheus-style systems:
// table entries become pre-indexed match lists with their action bodies
// inlined and constant-folded against the entry's bound parameters,
// parser select cases become direct jumps, and every store slot is a
// flat array index instead of a map key. The observable semantics are
// bit-for-bit those of the reference interpreter in internal/bmv2 —
// the differential fuzz target FuzzDpexecVsBmv2 and the equivalence
// suites hold the two to packet-for-packet equality.
//
// Images are immutable once built. Incremental control-plane updates
// produce a new image via Image.WithTarget (rebuilding only the touched
// table, value set, or register fill, and of a table compiling only the
// entries that are new to it); the engine hot-swaps the image
// pointer at epoch publication so packet execution is wait-free under
// churn. A Machine may be reused across packets and across images; it
// re-attaches (re-sizing its slot file and rebuilding register state)
// whenever it sees a new image.
package dpexec

import (
	"fmt"

	"repro/internal/sym"
)

// Opcodes for the flattened bytecode. Operands a, b, c are
// per-instruction immediates: constant-pool indices, slot numbers, jump
// targets, or side-table indices as noted.
const (
	opPushC      uint8 = iota // push consts[a]
	opLoad                    // push slots[a]
	opStore                   // slots[a] = pop
	opStoreC                  // slots[a] = consts[b]
	opSwap                    // swap the top two stack values
	opAnd                     // pop y, x; push x & y
	opOr                      // pop y, x; push x | y
	opXor                     // pop y, x; push x ^ y
	opAdd                     // pop y, x; push x + y
	opSub                     // pop y, x; push x - y
	opNot                     // pop x; push ~x
	opNeg                     // pop x; push 0 - x (width of x)
	opEqv                     // pop y, x; push Bool(x == y)
	opNeq                     // pop y, x; push Bool(x != y)
	opUlt                     // pop y, x; push Bool(x < y)
	opUle                     // pop y, x; push Bool(x <= y)
	opUgt                     // pop y, x; push Bool(x > y)
	opUge                     // pop y, x; push Bool(x >= y)
	opShl                     // pop y, x; push x << y (oversized shift = 0)
	opLshr                    // pop y, x; push x >> y (oversized shift = 0)
	opConcat                  // pop y, x; push x ++ y
	opExtract                 // pop x; push x[a:b]
	opZext                    // pop x; push x zero-extended to width a
	opJmp                     // pc = a
	opJf                      // pop x; if !x.IsTrue() pc = a
	opJz                      // pop x; if x.IsZero() pc = a
	opStep                    // parser step counter; trap traps[a] past 257
	opExtractHdr              // run extract descriptor extracts[a]
	opVsMatch                 // pop key; push Bool(vsets[a] matches key)
	opTable                   // apply tables[a]; b!=0 pushes hit; exited -> pc = c
	opRegRead                 // pop idx; slots[b] = regs[a][idx % size]
	opRegWrite                // pop v, idx; regs[a][idx % size] = v
	opCtlBegin                // control prologue: clear exited, clear stack
	opExit                    // exited = true; pc = a (end of control)
	opExitBlk                 // exited = true; halt the current block
	opRejectPkt               // parser reject: halt, mark rejected
	opTrap                    // runtime error traps[a]
)

// instr is one bytecode instruction.
type instr struct {
	op      uint8
	a, b, c int32
}

// fieldRef locates one header field: its slot and declared width.
type fieldRef struct {
	slot int32
	w    uint16
}

// extractDesc drives one packet.extract(hdr) call.
type extractDesc struct {
	fields    []fieldRef
	validSlot int32
	inParser  bool // short packet rejects in the parser, traps elsewhere
}

// deparseHeader is one header in the deparse plan.
type deparseHeader struct {
	validSlot int32
	fields    []fieldRef
}

// block is a self-contained compiled action body (table entry or miss
// action): its own code and constant pool, so an incremental table
// rebuild never mutates shared image arrays.
type block struct {
	code   []instr
	consts []sym.BV
}

// regTemplate describes one register array; Machines instantiate cells
// from it when they attach to an image.
type regTemplate struct {
	qname string
	size  int
	width uint16
	fill  sym.BV
}

// Image is an immutable compiled program + configuration. Build one
// with Compile, derive updated ones with WithTarget, and execute it
// with a Machine. All exported methods are safe for concurrent use.
type Image struct {
	code   []instr
	consts []sym.BV

	slotInit []sym.BV
	tables   []*exTable
	vsets    []*exVset
	regs     []regTemplate
	extracts []extractDesc
	traps    []string

	// Environment seeding: slots that receive the ingress port and the
	// packet length before each run.
	portSlots []int32
	lenSlots  []int32

	// Result extraction; -1 when the program has no such slot.
	dropSlot, egressSlot, mcastSlot int32
	deparse                         []deparseHeader

	codeHash uint64 // configuration-independent half of the content hash
	hash     uint64 // full content hash

	// blocksCompiled counts the entry action blocks the Compile or
	// WithTarget call that produced this image had to compile.
	blocksCompiled int

	// Retained compile context for incremental rebuilds.
	cc       *compileCtx
	tableIdx map[string]int
	vsetIdx  map[string]int
	regIdx   map[string]int
}

// Hash is a deterministic content hash of the image: identical program
// + configuration always hash identically, whether the image was built
// by a full Compile or by a chain of WithTarget rebuilds. The torture
// suite uses it to pin concurrently-observed images to the sequential
// oracle's image at the same update count.
func (img *Image) Hash() uint64 { return img.hash }

// BlocksCompiled reports how many table-entry action blocks were
// compiled to produce this image: every active entry's for Compile,
// only those of entries its predecessor did not hold for WithTarget.
// It is the work counter of incremental image maintenance — a count,
// not a clock.
func (img *Image) BlocksCompiled() int { return img.blocksCompiled }

// NumSlots reports the size of the flat store, a rough proxy for image
// footprint.
func (img *Image) NumSlots() int { return len(img.slotInit) }

// NumInstrs reports the length of the main code segment.
func (img *Image) NumInstrs() int { return len(img.code) }

// Result is the observable outcome of one packet, mirroring
// bmv2.Result field for field.
type Result struct {
	Dropped        bool
	ParserRejected bool
	EgressPort     uint64
	McastGrp       uint64
	// Emitted aliases an internal Machine buffer: it is valid until the
	// Machine's next Run. Copy it if you need to keep it.
	Emitted []byte
}

// Equal reports observable equality, with bmv2's convention: two
// dropped packets are equal regardless of the other fields.
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

// RunError is a data-plane runtime error (the compiled analogue of
// bmv2's interpreter errors: parser non-termination, an entry
// referencing an unknown action, ...).
type RunError struct{ msg string }

func (e *RunError) Error() string { return "dpexec: " + e.msg }

// Machine executes packets against an Image. It is not safe for
// concurrent use; pool Machines and hand one per goroutine. After the
// first Run against an image, subsequent runs perform zero heap
// allocations.
type Machine struct {
	img   *Image
	slots []sym.BV
	stack []sym.BV
	regs  [][]sym.BV
	out   []byte

	data     []byte
	cursor   int
	nbit     uint
	steps    int
	exited   bool
	rejected bool
}

// NewMachine returns an empty machine; it attaches lazily on first Run.
func NewMachine() *Machine { return &Machine{} }

// attach (re)sizes per-image state: the slot file and register cells.
// Register contents restart from the image's fill values — register
// state persists across packets within one image, and resets when the
// control plane publishes a new image.
func (m *Machine) attach(img *Image) {
	m.img = img
	if cap(m.slots) < len(img.slotInit) {
		m.slots = make([]sym.BV, len(img.slotInit))
	} else {
		m.slots = m.slots[:len(img.slotInit)]
	}
	if cap(m.regs) < len(img.regs) {
		m.regs = make([][]sym.BV, len(img.regs))
	} else {
		m.regs = m.regs[:len(img.regs)]
	}
	for i, rt := range img.regs {
		if cap(m.regs[i]) < rt.size {
			m.regs[i] = make([]sym.BV, rt.size)
		} else {
			m.regs[i] = m.regs[i][:rt.size]
		}
		for j := range m.regs[i] {
			m.regs[i][j] = rt.fill
		}
	}
}

// Run executes one packet and returns the observable result. The
// returned Emitted slice is only valid until the next Run.
func (m *Machine) Run(img *Image, data []byte, port uint16) (Result, error) {
	if m.img != img {
		m.attach(img)
	}
	copy(m.slots, img.slotInit)
	for _, s := range img.portSlots {
		m.slots[s] = sym.NewBV(9, uint64(port)%512)
	}
	for _, s := range img.lenSlots {
		m.slots[s] = sym.NewBV(32, uint64(len(data)))
	}
	m.data = data
	m.cursor = 0
	m.steps = 0
	m.exited = false
	m.rejected = false
	m.stack = m.stack[:0]

	if err := m.exec(img.code, img.consts); err != nil {
		return Result{}, err
	}
	if m.rejected {
		return Result{Dropped: true, ParserRejected: true}, nil
	}
	var res Result
	if img.dropSlot >= 0 && !m.slots[img.dropSlot].IsZero() {
		res.Dropped = true
		return res, nil
	}
	if img.egressSlot >= 0 {
		res.EgressPort = m.slots[img.egressSlot].Uint64()
	}
	if img.mcastSlot >= 0 {
		res.McastGrp = m.slots[img.mcastSlot].Uint64()
	}
	res.Emitted = m.deparse()
	return res, nil
}

// exec runs one code segment (the image's main code, or one compiled
// action block invoked from a table application).
func (m *Machine) exec(code []instr, consts []sym.BV) error {
	img := m.img
	s := m.stack
	for pc := 0; pc < len(code); {
		in := code[pc]
		switch in.op {
		case opPushC:
			s = append(s, consts[in.a])
			pc++
		case opLoad:
			s = append(s, m.slots[in.a])
			pc++
		case opStore:
			m.slots[in.a] = s[len(s)-1]
			s = s[:len(s)-1]
			pc++
		case opStoreC:
			m.slots[in.a] = consts[in.b]
			pc++
		case opSwap:
			n := len(s)
			s[n-1], s[n-2] = s[n-2], s[n-1]
			pc++
		case opAnd:
			n := len(s)
			s[n-2] = s[n-2].And(s[n-1])
			s = s[:n-1]
			pc++
		case opOr:
			n := len(s)
			s[n-2] = s[n-2].Or(s[n-1])
			s = s[:n-1]
			pc++
		case opXor:
			n := len(s)
			s[n-2] = s[n-2].Xor(s[n-1])
			s = s[:n-1]
			pc++
		case opAdd:
			n := len(s)
			s[n-2] = s[n-2].Add(s[n-1])
			s = s[:n-1]
			pc++
		case opSub:
			n := len(s)
			s[n-2] = s[n-2].Sub(s[n-1])
			s = s[:n-1]
			pc++
		case opNot:
			s[len(s)-1] = s[len(s)-1].Not()
			pc++
		case opNeg:
			x := s[len(s)-1]
			s[len(s)-1] = sym.BV{W: x.W}.Sub(x)
			pc++
		case opEqv:
			n := len(s)
			s[n-2] = sym.Bool(s[n-2] == s[n-1])
			s = s[:n-1]
			pc++
		case opNeq:
			n := len(s)
			s[n-2] = sym.Bool(s[n-2] != s[n-1])
			s = s[:n-1]
			pc++
		case opUlt:
			n := len(s)
			s[n-2] = sym.Bool(s[n-2].Ult(s[n-1]))
			s = s[:n-1]
			pc++
		case opUle:
			n := len(s)
			s[n-2] = sym.Bool(!s[n-1].Ult(s[n-2]))
			s = s[:n-1]
			pc++
		case opUgt:
			n := len(s)
			s[n-2] = sym.Bool(s[n-1].Ult(s[n-2]))
			s = s[:n-1]
			pc++
		case opUge:
			n := len(s)
			s[n-2] = sym.Bool(!s[n-2].Ult(s[n-1]))
			s = s[:n-1]
			pc++
		case opShl:
			n := len(s)
			x, y := s[n-2], s[n-1]
			if y.Hi != 0 || y.Lo >= uint64(x.W) {
				s[n-2] = sym.BV{W: x.W}
			} else {
				s[n-2] = x.Shl(uint(y.Lo))
			}
			s = s[:n-1]
			pc++
		case opLshr:
			n := len(s)
			x, y := s[n-2], s[n-1]
			if y.Hi != 0 || y.Lo >= uint64(x.W) {
				s[n-2] = sym.BV{W: x.W}
			} else {
				s[n-2] = x.Lshr(uint(y.Lo))
			}
			s = s[:n-1]
			pc++
		case opConcat:
			n := len(s)
			s[n-2] = s[n-2].Concat(s[n-1])
			s = s[:n-1]
			pc++
		case opExtract:
			s[len(s)-1] = s[len(s)-1].Extract(uint16(in.a), uint16(in.b))
			pc++
		case opZext:
			s[len(s)-1] = s[len(s)-1].ZeroExtend(uint16(in.a))
			pc++
		case opJmp:
			pc = int(in.a)
		case opJf:
			v := s[len(s)-1]
			s = s[:len(s)-1]
			if !v.IsTrue() {
				pc = int(in.a)
			} else {
				pc++
			}
		case opJz:
			v := s[len(s)-1]
			s = s[:len(s)-1]
			if v.IsZero() {
				pc = int(in.a)
			} else {
				pc++
			}
		case opStep:
			m.steps++
			if m.steps > 257 {
				m.stack = s
				return &RunError{img.traps[in.a]}
			}
			pc++
		case opExtractHdr:
			d := &img.extracts[in.a]
			ok := true
			for i := range d.fields {
				f := d.fields[i]
				v, got := m.readField(f.w)
				if !got {
					ok = false
					break
				}
				m.slots[f.slot] = v
			}
			if !ok {
				m.stack = s
				if d.inParser {
					m.rejected = true
					return nil
				}
				return &RunError{"packet too short"}
			}
			m.slots[d.validSlot] = sym.Bool(true)
			pc++
		case opVsMatch:
			key := s[len(s)-1]
			s[len(s)-1] = sym.Bool(img.vsets[in.a].match(key))
			pc++
		case opTable:
			m.stack = s
			hit, err := m.table(img.tables[in.a])
			if err != nil {
				return err
			}
			s = m.stack
			if in.b != 0 {
				s = append(s, sym.Bool(hit))
			}
			if m.exited {
				pc = int(in.c)
			} else {
				pc++
			}
		case opRegRead:
			idx := s[len(s)-1]
			s = s[:len(s)-1]
			cells := m.regs[in.a]
			m.slots[in.b] = cells[int(idx.Uint64())%len(cells)]
			pc++
		case opRegWrite:
			n := len(s)
			v, idx := s[n-1], s[n-2]
			s = s[:n-2]
			cells := m.regs[in.a]
			cells[int(idx.Uint64())%len(cells)] = v
			pc++
		case opCtlBegin:
			m.exited = false
			s = s[:0]
			pc++
		case opExit:
			m.exited = true
			pc = int(in.a)
		case opExitBlk:
			m.exited = true
			m.stack = s
			return nil
		case opRejectPkt:
			m.rejected = true
			m.stack = s
			return nil
		case opTrap:
			m.stack = s
			return &RunError{img.traps[in.a]}
		default:
			m.stack = s
			return &RunError{fmt.Sprintf("bad opcode %d", in.op)}
		}
	}
	m.stack = s
	return nil
}

// table applies one compiled table: first matching active entry wins
// (entries are in ActiveEntries precedence order; the exact-only index
// is a pure accelerator since at most one exact entry can match).
func (m *Machine) table(t *exTable) (bool, error) {
	var e *exEntry
	if t.index != nil {
		h := fnvOffset
		for _, si := range t.keySlots {
			h = mixBV(h, m.slots[si])
		}
		for p := t.indexSlot(h); t.index[p] != nil; p = (p + 1) & (len(t.index) - 1) {
			if m.entryMatches(t, t.index[p]) {
				e = t.index[p]
				break
			}
		}
	} else {
		for ci := range t.chunks {
			if e = m.scan(t, t.chunks[ci].entries); e != nil {
				break
			}
		}
	}
	if e != nil {
		if e.trap != "" {
			return false, &RunError{e.trap}
		}
		if e.blk != nil {
			if err := m.exec(e.blk.code, e.blk.consts); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if t.missTrap != "" {
		return false, &RunError{t.missTrap}
	}
	if t.miss != nil {
		if err := m.exec(t.miss.code, t.miss.consts); err != nil {
			return false, err
		}
	}
	return false, nil
}

// scan is the linear match over one chunk. It is a function of its own
// so that the chunk walk's variables are not live across it: inlined
// into that loop, the compiler reloads them from the stack per entry.
func (m *Machine) scan(t *exTable, entries []exEntry) *exEntry {
	for i := range entries {
		if m.entryMatches(t, &entries[i]) {
			return &entries[i]
		}
	}
	return nil
}

func (m *Machine) entryMatches(t *exTable, e *exEntry) bool {
	for i := range e.matches {
		em := &e.matches[i]
		key := m.slots[t.keySlots[i]]
		switch em.mode {
		case matchAlways:
		case matchEq:
			if key != em.value {
				return false
			}
		case matchMasked:
			if key.W != em.mask.W {
				return false
			}
			if (sym.BV{Hi: key.Hi & em.mask.Hi, Lo: key.Lo & em.mask.Lo, W: key.W}) != em.mvalue {
				return false
			}
		}
	}
	return true
}

// readField consumes width bits from the packet MSB-first, with a
// byte-aligned fast path.
func (m *Machine) readField(width uint16) (sym.BV, bool) {
	if m.cursor+int(width) > len(m.data)*8 {
		return sym.BV{}, false
	}
	if m.cursor%8 == 0 && width%8 == 0 {
		v := sym.FromBE(m.data[m.cursor/8:], width)
		m.cursor += int(width)
		return v, true
	}
	var hi, lo uint64
	for i := 0; i < int(width); i++ {
		bit := uint64(m.data[(m.cursor+i)/8] >> (7 - uint((m.cursor+i)%8)) & 1)
		hi = hi<<1 | lo>>63
		lo = lo<<1 | bit
	}
	m.cursor += int(width)
	return sym.BV{Hi: hi, Lo: lo, W: width}, true
}

// deparse emits every valid header per the image's precomputed plan,
// then the unparsed payload, into the machine's reusable buffer.
func (m *Machine) deparse() []byte {
	img := m.img
	m.out = m.out[:0]
	m.nbit = 0
	for i := range img.deparse {
		h := &img.deparse[i]
		if m.slots[h.validSlot].IsZero() {
			continue
		}
		for _, f := range h.fields {
			m.writeBits(m.slots[f.slot], f.w)
		}
	}
	if m.cursor%8 == 0 && m.cursor/8 <= len(m.data) {
		m.out = append(m.out, m.data[m.cursor/8:]...)
	}
	return m.out
}

func (m *Machine) writeBits(v sym.BV, width uint16) {
	if m.nbit%8 == 0 && width%8 == 0 {
		m.out = sym.AppendBE(m.out, v, width)
		m.nbit += uint(width)
		return
	}
	for i := int(width) - 1; i >= 0; i-- {
		if m.nbit%8 == 0 {
			m.out = append(m.out, 0)
		}
		if v.Bit(uint16(i)) {
			m.out[len(m.out)-1] |= 1 << (7 - m.nbit%8)
		}
		m.nbit++
	}
}
