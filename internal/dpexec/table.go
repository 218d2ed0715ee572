package dpexec

import (
	"fmt"
	"math/bits"

	"repro/internal/controlplane"
	"repro/internal/p4/ast"
	"repro/internal/sym"
)

// ---------------------------------------------------------------------------
// Compiled match structures
//
// A table compiles to a precedence-ordered list of entries whose match
// conditions are reduced to three runtime modes (always / exact /
// masked) and whose action bodies are inlined, constant-folded blocks.
// LPM prefixes become precomputed masks; Optional wildcards become
// matchAlways. Entries that can never match (key-count or key-width
// mismatches, where the reference interpreter would panic before the
// control plane's validation existed) are dropped at build time.

const (
	matchAlways uint8 = iota // matches any key
	matchEq                  // key == value (width-sensitive struct equality)
	matchMasked              // key & mask == value & mask (precomputed RHS)
)

type exMatch struct {
	mode   uint8
	value  sym.BV // matchEq
	mask   sym.BV // matchMasked
	mvalue sym.BV // matchMasked: value & mask, precomputed
}

// exEntry is one active table entry: its compiled matches and inlined
// action block. blk == nil is NoAction; trap != "" reproduces bmv2's
// match-time error for entries referencing unknown actions.
type exEntry struct {
	matches []exMatch
	blk     *block
	trap    string
}

// entryMeta is what a rebuild needs to know about a compiled entry
// without looking inside it, kept in a slice parallel to the entries
// so the lookup path never drags it through the cache: the
// configuration entry it was compiled from (installed entries are
// immutable, so the same pointer means the same compiled entry), its
// content hash, and — when every match is exact — its place in the
// exact-match index.
type entryMeta struct {
	src   *controlplane.TableEntry
	hash  uint64
	key   uint64
	exact bool
}

// entryChunk is a run of a table's entries, consecutive in match order.
// A table holds its entries as a list of chunks so that a rebuild can
// carry every chunk the update did not touch over — the two slice
// headers, the arrays shared — and copy only the one it did; a chunk's
// arrays never change once its table is built.
type entryChunk struct {
	entries []exEntry
	meta    []entryMeta // meta[i] describes entries[i]
}

const (
	chunkCap = 32           // most entries a chunk holds
	chunkMin = chunkCap / 2 // a rebuilt chunk shorter than this takes a neighbour in
)

// exTable is one compiled table. The trailing fields retain enough
// compile context to rebuild the table incrementally when the control
// plane updates it (Image.WithTarget).
type exTable struct {
	qname     string
	keySlots  []int32
	keyWidths []uint16
	chunks    []entryChunk // the entries, in match order
	n         int          // entries over all chunks
	miss      *block
	missTrap  string

	// index accelerates all-exact tables: an open-addressed table of
	// entries (nil is an empty slot), probed linearly from the key
	// hash's top indexBits bits. Nil for small or non-exact tables.
	index     []*exEntry
	indexBits uint8

	hash uint64

	cd  *ast.ControlDecl
	tbl *ast.Table
	env []map[string]binding
}

// Value-set member match modes, mirroring bmv2's three-way member
// classification (exact when the mask is absent or all-ones, wildcard
// when it is zero, masked otherwise).
const (
	vsEq uint8 = iota
	vsAlways
	vsMasked
	vsNever // width-mismatched member: unreachable under config validation
)

type vsMember struct {
	mode   uint8
	value  sym.BV
	mask   sym.BV
	mvalue sym.BV
}

type exVset struct {
	qname   string
	members []vsMember
	hash    uint64
}

// match reports whether key is in the value set, first-true-wins in
// member order like bmv2.
func (v *exVset) match(key sym.BV) bool {
	for i := range v.members {
		m := &v.members[i]
		switch m.mode {
		case vsEq:
			if key == m.value {
				return true
			}
		case vsAlways:
			return true
		case vsMasked:
			if key.W != m.mask.W {
				continue
			}
			if (sym.BV{Hi: key.Hi & m.mask.Hi, Lo: key.Lo & m.mask.Lo, W: key.W}) == m.mvalue {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Builders

// chunkList assembles a table's chunks during a rebuild: chunks of the
// predecessor carried over whole (their arrays shared), everything else
// copied into an open chunk of the list's own.
type chunkList struct {
	chunks []entryChunk
	open   entryChunk // being filled, not yet in chunks; no arrays when there is none
	n      int
}

// add copies one entry into the open chunk and ships the chunk when full.
func (l *chunkList) add(e exEntry, m entryMeta) {
	if l.open.entries == nil {
		l.open = entryChunk{entries: make([]exEntry, 0, chunkCap), meta: make([]entryMeta, 0, chunkCap)}
	}
	l.open.entries = append(l.open.entries, e)
	l.open.meta = append(l.open.meta, m)
	l.n++
	if len(l.open.entries) == chunkCap {
		l.flush()
	}
}

func (l *chunkList) addRun(c entryChunk, from, to int) {
	for i := from; i < to; i++ {
		l.add(c.entries[i], c.meta[i])
	}
}

func (l *chunkList) flush() {
	if l.open.entries != nil {
		l.chunks, l.open = append(l.chunks, l.open), entryChunk{}
	}
}

// carry takes over c, a whole chunk of the predecessor. A short open
// chunk takes c in instead of shipping short — all of it when the two
// fit one chunk, else the two split evenly — so that writes at one place
// never leave a trail of one-entry chunks; the copy stays within c.
func (l *chunkList) carry(c entryChunk) {
	if l.open.entries == nil || len(l.open.entries) >= chunkMin {
		l.flush()
		l.chunks = append(l.chunks, c)
		l.n += len(c.entries)
		return
	}
	take := len(c.entries)
	if sum := len(l.open.entries) + take; sum > chunkCap {
		take = sum/2 - len(l.open.entries)
	}
	l.addRun(c, 0, take)
	if take < len(c.entries) {
		l.flush()
		l.addRun(c, take, len(c.entries))
	}
}

// finish ships the open chunk, a short one merged into the chunk before
// it (split evenly when the two overflow one chunk).
func (l *chunkList) finish() {
	if l.open.entries != nil && len(l.open.entries) < chunkMin && len(l.chunks) > 0 {
		last, tail := l.chunks[len(l.chunks)-1], l.open
		l.chunks, l.open = l.chunks[:len(l.chunks)-1], entryChunk{}
		l.n -= len(last.entries) + len(tail.entries)
		split := 0
		if sum := len(last.entries) + len(tail.entries); sum > chunkCap {
			split = sum / 2
			l.addRun(last, 0, split)
			l.flush()
		}
		l.addRun(last, split, len(last.entries))
		l.addRun(tail, 0, len(tail.entries))
	}
	l.flush()
}

// holdsRun reports whether c's entries are exactly the next active ones
// and, when vouch is set, each of them is vouched for.
func holdsRun(c entryChunk, active []*controlplane.TableEntry, vouch func(*exEntry, *controlplane.TableEntry) bool) bool {
	if len(c.meta) > len(active) {
		return false
	}
	for i := range c.meta {
		if c.meta[i].src != active[i] || vouch != nil && !vouch(&c.entries[i], active[i]) {
			return false
		}
	}
	return true
}

// context is a table holding t's compile context and no entries.
func (t *exTable) context() *exTable {
	return &exTable{qname: t.qname, keySlots: t.keySlots, keyWidths: t.keyWidths, cd: t.cd, tbl: t.tbl, env: t.env}
}

// inlined is the action declaration e's block inlines: nil for NoAction
// and for a trap.
func (e *exEntry) inlined() *ast.Action {
	if e.blk == nil {
		return nil
	}
	return e.blk.act
}

// actionOf is the declaration an entry naming action inlines in t: nil
// for NoAction and for an action t's control does not declare.
func (t *exTable) actionOf(action string) *ast.Action {
	if action == "NoAction" {
		return nil
	}
	return t.cd.Action(action)
}

// buildExTable compiles t, a table holding its compile context and no
// entries, under cfg as a delta against prev, a compiled predecessor of
// the same table (nil for none): an active entry prev already compiled
// is carried over — matches, block and hash, a whole untouched chunk at
// a time — and only entries new to the table are compiled. What a
// rebuild copies is the chunk the update lands in (and at most one
// neighbour), not the table; what still walks the table is the pointer
// comparison below, the hash fold and, on an all-exact table, the
// index. A from-scratch build is the same walk over no predecessor,
// which is what keeps a WithTarget chain, and a Recompile, hash-identical
// to Compile. It reports how many entry action blocks it compiled.
//
// prev must have been compiled in t's context: blocks that address the
// same slots, the same key slots and widths, the same apply-site scope.
// When it was compiled against another declaration of the control (a
// Recompile of another program), an entry carries only while its action
// name still resolves to the declaration its block inlines.
func buildExTable(cc *compileCtx, img *Image, cfg *controlplane.Config, t, prev *exTable) (*exTable, int, error) {
	var prevChunks []entryChunk
	var vouch func(*exEntry, *controlplane.TableEntry) bool
	if prev != nil {
		prevChunks = prev.chunks
		if prev.cd != t.cd {
			var verified *ast.Action // the action last vouched for: a table's entries mostly share one
			vouch = func(e *exEntry, src *controlplane.TableEntry) bool {
				act := e.inlined()
				if act != nil && act == verified {
					return true
				}
				if t.actionOf(src.Action) != act {
					return false
				}
				verified = act
				return true
			}
		}
	}
	compiled := 0
	if cfg != nil {
		active, _ := cfg.ActiveEntries(t.qname)
		l := chunkList{chunks: make([]entryChunk, 0, max(len(prevChunks)+2, len(active)/chunkCap+1))}
		// Both lists are in match order, so this is a merge: whatever
		// prev holds ahead of e and is not e has left the active list,
		// and the entries the two lists share come in runs.
		for i, pc, po := 0, 0, 0; i < len(active); {
			e := active[i]
			for pc < len(prevChunks) {
				c := prevChunks[pc]
				if po == len(c.meta) {
					pc, po = pc+1, 0
				} else if src := c.meta[po].src; src != e && src.Before(e) {
					po++
				} else {
					break
				}
			}
			if pc < len(prevChunks) {
				c := prevChunks[pc]
				if po == 0 && holdsRun(c, active[i:], vouch) {
					l.carry(c)
					i, pc = i+len(c.meta), pc+1
					continue
				}
				if c.meta[po].src == e {
					po++ // consumed, carried or not
					if vouch == nil || vouch(&c.entries[po-1], e) {
						l.add(c.entries[po-1], c.meta[po-1])
						i++
						continue
					}
				}
			}
			ee, m, live, err := buildEntry(cc, img, cfg, t, e)
			if err != nil {
				return nil, 0, err
			}
			if ee.blk != nil {
				compiled++
			}
			if live {
				l.add(ee, m)
			}
			i++
		}
		l.finish()
		t.chunks, t.n = l.chunks, l.n
	}

	// Miss path: the declared default, unless the control plane
	// overrides it with a bound action call.
	name := "NoAction"
	var constParams []sym.BV
	override := false
	if t.tbl.Default != nil {
		name = t.tbl.Default.Name
	}
	if cfg != nil {
		if d, ok := cfg.Default(t.qname); ok {
			name, constParams, override = d.Name, d.Params, true
		}
	}
	if name != "NoAction" {
		act := t.cd.Action(name)
		switch {
		case act == nil:
			t.missTrap = fmt.Sprintf("table %s default references unknown action %s", t.qname, name)
		case override:
			blk, err := compileEntryBlock(cc, img, cfg, t.cd, t.env, act, constParams)
			if err != nil {
				return nil, 0, err
			}
			t.miss = blk
		default:
			blk, err := compileMissBlock(cc, img, cfg, t.cd, t.env, t.qname, t.tbl.Default, act)
			if err != nil {
				return nil, 0, err
			}
			t.miss = blk
		}
	}

	t.buildIndex()
	t.hash = t.computeHash()
	return t, compiled, nil
}

// buildEntry compiles one active entry of t and derives its rebuild
// metadata. live == false drops entries that can never match any key
// (bmv2 reaches the same outcome via struct inequality, or would panic
// on width mismatches that config validation already rejects).
func buildEntry(cc *compileCtx, img *Image, cfg *controlplane.Config, t *exTable, e *controlplane.TableEntry) (exEntry, entryMeta, bool, error) {
	matches, live := compileMatches(t.keyWidths, e)
	if !live {
		return exEntry{}, entryMeta{}, false, nil
	}
	ee := exEntry{matches: matches}
	act := t.actionOf(e.Action)
	switch {
	case act != nil:
		blk, err := compileEntryBlock(cc, img, cfg, t.cd, t.env, act, e.Params)
		if err != nil {
			return ee, entryMeta{}, false, err
		}
		ee.blk = blk
	case e.Action != "NoAction":
		ee.trap = fmt.Sprintf("table %s entry references unknown action %s", t.qname, e.Action)
	}
	return ee, describe(e, &ee), true, nil
}

// compileMatches reduces an entry's matches against keys of the given
// widths to the runtime modes; false when the entry can never match.
func compileMatches(keyWidths []uint16, e *controlplane.TableEntry) ([]exMatch, bool) {
	if len(e.Matches) != len(keyWidths) {
		return nil, false
	}
	matches := make([]exMatch, len(e.Matches))
	for i := range e.Matches {
		m := &e.Matches[i]
		kw := keyWidths[i]
		switch m.Kind {
		case controlplane.MatchExact:
			matches[i] = exMatch{mode: matchEq, value: m.Value}
		case controlplane.MatchTernary:
			em, ok := maskedMatch(m.Value, m.Mask)
			if !ok {
				return nil, false
			}
			matches[i] = em
		case controlplane.MatchLPM:
			if m.PrefixLen <= 0 {
				matches[i] = exMatch{mode: matchAlways}
				break
			}
			if kw == 0 || m.Value.W != kw {
				return nil, false
			}
			// Oversized prefixes shift the mask to zero, which matches
			// everything — the same outcome as bmv2's dynamic shift.
			mask := shiftMask(kw, m.PrefixLen)
			em, _ := maskedMatch(m.Value, mask)
			matches[i] = em
		case controlplane.MatchOptional:
			if m.Wildcard {
				matches[i] = exMatch{mode: matchAlways}
			} else {
				matches[i] = exMatch{mode: matchEq, value: m.Value}
			}
		default:
			return nil, false
		}
	}
	return matches, true
}

// describe derives the rebuild metadata of a freshly compiled entry.
func describe(src *controlplane.TableEntry, e *exEntry) entryMeta {
	m := entryMeta{src: src, exact: true, key: fnvOffset}
	h := mix(fnvOffset, uint64(len(e.matches)))
	for j := range e.matches {
		em := &e.matches[j]
		h = mix(h, uint64(em.mode))
		h = mixBV(h, em.value)
		h = mixBV(h, em.mask)
		h = mixBV(h, em.mvalue)
		m.exact = m.exact && em.mode == matchEq
		m.key = mixBV(m.key, em.value) // what Machine.table folds from the key slots
	}
	h = hashBlock(h, e.blk)
	m.hash = mixStr(h, e.trap)
	return m
}

// shiftMask is bmv2's LPM mask: width-kw all-ones shifted left by
// (kw - prefixLen), with oversized shifts collapsing to zero.
func shiftMask(kw uint16, prefixLen int) sym.BV {
	n := int(kw) - prefixLen
	if n < 0 || n >= int(kw) {
		// Prefix longer than the key: bmv2's uint conversion makes the
		// shift oversized, zeroing the mask (which matches everything).
		return sym.BV{W: kw}
	}
	return sym.AllOnes(kw).Shl(uint(n))
}

func maskedMatch(value, mask sym.BV) (exMatch, bool) {
	if value.W != mask.W {
		return exMatch{}, false
	}
	return exMatch{
		mode:   matchMasked,
		mask:   mask,
		mvalue: sym.BV{Hi: value.Hi & mask.Hi, Lo: value.Lo & mask.Lo, W: value.W},
	}, true
}

// compileEntryBlock inlines an action body with every parameter bound
// to a compile-time constant, in the scope environment captured at the
// table's apply site. The block owns its code and constant pool, so
// incremental rebuilds never touch shared image arrays.
func compileEntryBlock(cc *compileCtx, img *Image, cfg *controlplane.Config, cd *ast.ControlDecl, env []map[string]binding, act *ast.Action, params []sym.BV) (*block, error) {
	if len(params) != len(act.Params) {
		return nil, cerr("action %s called with %d args, wants %d", act.Name, len(params), len(act.Params))
	}
	bc := &compiler{
		cc:      cc,
		cfg:     cfg,
		img:     img,
		asm:     newAsm(),
		scopes:  env,
		control: cd,
		inBlock: true,
		trapIdx: make(map[string]int32),
	}
	bc.pushScope()
	for i, p := range act.Params {
		bc.bind(p.Name, binding{kind: bindConst, k: params[i]})
	}
	if err := bc.compileStmt(act.Body); err != nil {
		return nil, err
	}
	return &block{code: bc.asm.code, consts: bc.asm.consts, act: act}, nil
}

// compileMissBlock compiles the declared default action: its arguments
// are expressions evaluated at miss time in the apply-site scope
// (dynamic ones spill to the prewalk-allocated default-arg slots), then
// the body inlines like any other action call.
func compileMissBlock(cc *compileCtx, img *Image, cfg *controlplane.Config, cd *ast.ControlDecl, env []map[string]binding, qname string, def *ast.ActionRef, act *ast.Action) (*block, error) {
	bc := &compiler{
		cc:      cc,
		cfg:     cfg,
		img:     img,
		asm:     newAsm(),
		scopes:  env,
		control: cd,
		inBlock: true,
		trapIdx: make(map[string]int32),
	}
	args := make([]argVal, len(def.Args))
	for i, aE := range def.Args {
		v, err := bc.expr(aE)
		if err != nil {
			return nil, err
		}
		if v.c {
			args[i] = argVal{c: true, k: v.k}
			continue
		}
		slot, ok := cc.slot(argKey("default:"+qname, i))
		if !ok {
			return nil, cerr("internal: default arg slot for %s not pre-allocated", qname)
		}
		bc.asm.emit(opStore, slot, 0, 0)
		args[i] = argVal{slot: slot}
	}
	if err := bc.inlineAction(act, args, "default:"+qname); err != nil {
		return nil, err
	}
	return &block{code: bc.asm.code, consts: bc.asm.consts, act: act}, nil
}

// buildVset compiles one parser value set under cfg.
func buildVset(qname string, cfg *controlplane.Config) *exVset {
	v := &exVset{qname: qname}
	if cfg != nil {
		for _, mem := range cfg.ValueSet(qname) {
			switch {
			case mem.Mask.W == 0 || mem.Mask.IsAllOnes():
				v.members = append(v.members, vsMember{mode: vsEq, value: mem.Value})
			case mem.Mask.IsZero():
				v.members = append(v.members, vsMember{mode: vsAlways})
			case mem.Value.W != mem.Mask.W:
				v.members = append(v.members, vsMember{mode: vsNever})
			default:
				v.members = append(v.members, vsMember{
					mode:   vsMasked,
					value:  mem.Value,
					mask:   mem.Mask,
					mvalue: sym.BV{Hi: mem.Value.Hi & mem.Mask.Hi, Lo: mem.Value.Lo & mem.Mask.Lo, W: mem.Value.W},
				})
			}
		}
	}
	v.hash = v.computeHash()
	return v
}

// buildIndex builds the exact-match accelerator when the table is big
// enough to benefit and every entry matches exactly on every key. The
// probe re-verifies with entryMatches, so the index is semantically
// transparent. At most half the slots are taken.
func (t *exTable) buildIndex() {
	if t.n < 4 {
		return
	}
	for ci := range t.chunks {
		for _, m := range t.chunks[ci].meta {
			if !m.exact {
				return
			}
		}
	}
	t.indexBits = uint8(bits.Len(uint(2*t.n - 1)))
	t.index = make([]*exEntry, 1<<t.indexBits)
	for _, c := range t.chunks {
		for i := range c.meta {
			p := t.indexSlot(c.meta[i].key)
			for t.index[p] != nil {
				p = (p + 1) & (len(t.index) - 1)
			}
			t.index[p] = &c.entries[i]
		}
	}
}

// indexSlot is where probing for key hash h starts. The FNV fold's low
// bits only mix the low bits of its input; the multiply moves all of
// them to the top.
func (t *exTable) indexSlot(h uint64) int {
	return int(h * 0x9e3779b97f4a7c15 >> (64 - t.indexBits))
}

// ---------------------------------------------------------------------------
// Content hashing
//
// FNV-1a-style folding over every semantically relevant field. The
// image hash is the fold of the configuration-independent code hash
// with each table/value-set/register hash in side-table order, and a
// table hash folds its entries' hashes, each computed once when the
// entry is compiled; the index is derived state and deliberately
// excluded.

const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * uint(i))) & 0xff
		h *= fnvPrime
	}
	return h
}

func mixBV(h uint64, v sym.BV) uint64 {
	h = mix(h, v.Hi)
	h = mix(h, v.Lo)
	return mix(h, uint64(v.W))
}

func mixStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix(h, uint64(len(s)))
}

func mixCode(h uint64, code []instr) uint64 {
	h = mix(h, uint64(len(code)))
	for _, in := range code {
		h = mix(h, uint64(in.op))
		h = mix(h, uint64(uint32(in.a)))
		h = mix(h, uint64(uint32(in.b)))
		h = mix(h, uint64(uint32(in.c)))
	}
	return h
}

func hashBlock(h uint64, b *block) uint64 {
	if b == nil {
		return mix(h, 0)
	}
	h = mix(h, 1)
	h = mixCode(h, b.code)
	h = mix(h, uint64(len(b.consts)))
	for _, v := range b.consts {
		h = mixBV(h, v)
	}
	return h
}

func (t *exTable) computeHash() uint64 {
	h := fnvOffset
	h = mixStr(h, t.qname)
	for _, s := range t.keySlots {
		h = mix(h, uint64(uint32(s)))
	}
	for _, w := range t.keyWidths {
		h = mix(h, uint64(w))
	}
	h = mix(h, uint64(t.n))
	for ci := range t.chunks {
		for _, m := range t.chunks[ci].meta {
			// One FNV round per entry: the entry hashes are already mixed,
			// and this loop runs over the whole table on every rebuild.
			h = (h ^ m.hash) * fnvPrime
		}
	}
	h = hashBlock(h, t.miss)
	h = mixStr(h, t.missTrap)
	return h
}

func (v *exVset) computeHash() uint64 {
	h := fnvOffset
	h = mixStr(h, v.qname)
	h = mix(h, uint64(len(v.members)))
	for i := range v.members {
		m := &v.members[i]
		h = mix(h, uint64(m.mode))
		h = mixBV(h, m.value)
		h = mixBV(h, m.mask)
		h = mixBV(h, m.mvalue)
	}
	return h
}

// hashCode folds every configuration-independent image field: code,
// constants, slot layout, extract and deparse plans, environment and
// result slots, and trap messages.
func (img *Image) hashCode() uint64 {
	h := fnvOffset
	h = mixCode(h, img.code)
	h = mix(h, uint64(len(img.consts)))
	for _, v := range img.consts {
		h = mixBV(h, v)
	}
	h = mix(h, uint64(len(img.slotInit)))
	for _, v := range img.slotInit {
		h = mixBV(h, v)
	}
	h = mix(h, uint64(len(img.extracts)))
	for i := range img.extracts {
		d := &img.extracts[i]
		h = mix(h, uint64(len(d.fields)))
		for _, f := range d.fields {
			h = mix(h, uint64(uint32(f.slot)))
			h = mix(h, uint64(f.w))
		}
		h = mix(h, uint64(uint32(d.validSlot)))
		if d.inParser {
			h = mix(h, 1)
		} else {
			h = mix(h, 0)
		}
	}
	h = mix(h, uint64(len(img.deparse)))
	for i := range img.deparse {
		dh := &img.deparse[i]
		h = mix(h, uint64(uint32(dh.validSlot)))
		h = mix(h, uint64(len(dh.fields)))
		for _, f := range dh.fields {
			h = mix(h, uint64(uint32(f.slot)))
			h = mix(h, uint64(f.w))
		}
	}
	h = mix(h, uint64(len(img.portSlots)))
	for _, s := range img.portSlots {
		h = mix(h, uint64(uint32(s)))
	}
	h = mix(h, uint64(len(img.lenSlots)))
	for _, s := range img.lenSlots {
		h = mix(h, uint64(uint32(s)))
	}
	h = mix(h, uint64(uint32(img.dropSlot)))
	h = mix(h, uint64(uint32(img.egressSlot)))
	h = mix(h, uint64(uint32(img.mcastSlot)))
	h = mix(h, uint64(len(img.traps)))
	for _, t := range img.traps {
		h = mixStr(h, t)
	}
	return h
}

// rehash recomputes the full image hash from the cached code hash and
// the side tables.
func (img *Image) rehash() {
	h := img.codeHash
	for _, t := range img.tables {
		h = mix(h, t.hash)
	}
	for _, v := range img.vsets {
		h = mix(h, v.hash)
	}
	for _, r := range img.regs {
		h = mixStr(h, r.qname)
		h = mix(h, uint64(r.size))
		h = mix(h, uint64(r.width))
		h = mixBV(h, r.fill)
	}
	img.hash = h
}

// ---------------------------------------------------------------------------
// Incremental rebuild

// WithTarget derives a new image reflecting cfg for one updated target
// (a table, value set, or register qualified name), rebuilding only
// that side table — and, of a table, compiling only the entries the
// receiver does not already hold (buildExTable). Targets absent from
// the image — for example tables pruned out of a specialized program —
// return the receiver unchanged. The receiver is never mutated.
//
// The invariant the engine's torture suite pins: a chain of WithTarget
// rebuilds hashes identically to a from-scratch Compile against the
// same final configuration.
func (img *Image) WithTarget(cfg *controlplane.Config, target string) (ni *Image, err error) {
	defer func() {
		if r := recover(); r != nil {
			ni, err = nil, cerr("rebuild panic: %v", r)
		}
	}()
	cp := *img
	cp.blocksCompiled = 0
	if ti, ok := img.tableIdx[target]; ok {
		cp.tables = make([]*exTable, len(img.tables))
		copy(cp.tables, img.tables)
		nt, n, err := buildExTable(img.cc, &cp, cfg, img.tables[ti].context(), img.tables[ti])
		if err != nil {
			return nil, err
		}
		cp.tables[ti] = nt
		cp.blocksCompiled = n
		cp.rehash()
		return &cp, nil
	}
	if vi, ok := img.vsetIdx[target]; ok {
		cp.vsets = make([]*exVset, len(img.vsets))
		copy(cp.vsets, img.vsets)
		cp.vsets[vi] = buildVset(target, cfg)
		cp.rehash()
		return &cp, nil
	}
	if ri, ok := img.regIdx[target]; ok {
		cp.regs = append([]regTemplate(nil), img.regs...)
		rt := cp.regs[ri]
		fill := sym.BV{W: rt.width}
		if cfg != nil {
			if f, got := cfg.RegisterFill(target); got {
				fill = f
			}
		}
		rt.fill = fill
		cp.regs[ri] = rt
		cp.rehash()
		return &cp, nil
	}
	return img, nil
}
