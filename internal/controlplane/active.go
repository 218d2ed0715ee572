package controlplane

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataplane"
	"repro/internal/sym"
)

// Active-entry maintenance. A table's active list — its installed
// entries in match order with the eclipsed ones left out (§4.1) — is
// read by everything that renders the table: the assignment compiler,
// the reference interpreter on every packet, the executable image on
// every publication. The configuration therefore keeps the list current
// as entries are written, at a cost proportional to what the write
// changes, instead of sorting and filtering the whole table on every
// read.
//
// The eclipse test is tuple-space style. Installed entries are bucketed
// by mask signature (the per-key effective masks) and, inside a
// signature, by the hash of their match values under those masks. An
// entry a can only cover an entry e if a's masks are a subset of e's,
// so "is e covered by an earlier entry" is one hash probe per signature
// whose masks are a subset of e's own: one signature for an all-exact
// table, at most width+1 for LPM, a handful for an ACL. The same
// buckets answer "which installed entry has this match key", the lookup
// every insert, modify and delete starts with.
//
// Coverage is transitive, so "covered by some earlier installed entry"
// and "covered by some earlier active entry" are the same predicate;
// that is what lets the two lists be patched locally:
//
//   - an inserted entry is eclipsed if an earlier entry covers it;
//     otherwise it is active and eclipses the later active entries it
//     covers;
//   - deleting an eclipsed entry changes nothing else; deleting an
//     active one frees exactly the eclipsed entries nothing else covers
//     (a freed entry cannot eclipse an active one: whatever it covers,
//     the deleted entry covered too);
//   - a modify keeps the match key, so the entry keeps its place.
//
// Two things are kept per active entry and therefore move with the
// list: the table's ite spine (chain.go), one link per active entry, and
// per key the number of active entries that match it under a partial
// mask (what match-kind narrowing asks). activeInsert and activeDelete
// are the only places the list grows or shrinks, and splice both in
// step.

// tableState is one table's installed entries and the two
// precedence-ordered lists that partition them.
type tableState struct {
	ti       *dataplane.TableInfo
	entries  []*TableEntry // installed, insertion order (ascending seq)
	active   []*TableEntry // match order, eclipsed entries omitted
	eclipsed []*TableEntry // match order: covered by an earlier entry
	sigs     []*signature  // signatures of the installed entries
	// masked[k] counts the active entries whose effective mask on key k
	// is not all-ones.
	masked []int
	// chain is the spine of the table's precise assignment, nil until
	// the table compiles precisely and while it compiles to "*any*".
	chain *chain
}

// signature is one combination of per-key effective masks, shared by
// every installed entry that matches on exactly those bits.
type signature struct {
	masks []sym.BV
	spec  int // total mask popcount: LPM's "longest prefix first"
	refs  int // installed entries with this signature
	// byKey buckets the signature's installed entries by TableEntry.key,
	// chained through TableEntry.chain. Entries sharing a bucket match
	// the same packets (or their hashes collide).
	byKey map[uint64]*TableEntry
}

// newTableState builds the state of a table from its installed entries,
// which must be in insertion order and pairwise distinct. Placing them
// in match order means every entry lands at the end of its list, so a
// bulk load costs a sort plus one probe round per entry.
func newTableState(ti *dataplane.TableInfo, entries []*TableEntry) (*tableState, error) {
	t := &tableState{ti: ti, entries: entries}
	for i, e := range entries {
		// Match order breaks ties by sequence number, and entries are
		// found by it: both need the installed order to be the sequence
		// order.
		if i > 0 && e.seq <= entries[i-1].seq {
			return nil, fmt.Errorf("controlplane: state holds %s entries out of sequence (%d after %d)",
				ti.Name, e.seq, entries[i-1].seq)
		}
		if t.find(e) != nil {
			return nil, fmt.Errorf("controlplane: state holds duplicate entry in %s", ti.Name)
		}
		t.sign(e)
	}
	order := slices.Clone(entries)
	slices.SortFunc(order, func(a, b *TableEntry) int {
		if a.Before(b) {
			return -1
		}
		return 1
	})
	for _, e := range order {
		t.place(e)
	}
	return t, nil
}

// Before reports whether e takes precedence over o in match order:
// priority descending, then total mask specificity descending
// (longest-prefix-match), then insertion order. Both entries must be
// installed entries of the same table (ActiveEntries hands those out);
// the order is total there, and an entry and the copy a modify replaced
// it with compare equal (neither is before the other).
func (e *TableEntry) Before(o *TableEntry) bool {
	if e.Priority != o.Priority {
		return e.Priority > o.Priority
	}
	if e.sig.spec != o.sig.spec {
		return e.sig.spec > o.sig.spec
	}
	return e.seq < o.seq
}

// signatureOf returns the signature e's masks spell, nil if no
// installed entry has it.
func (t *tableState) signatureOf(e *TableEntry) *signature {
next:
	for _, s := range t.sigs {
		for i := range e.Matches {
			if e.Matches[i].ternaryMask(t.ti.KeyWidths[i]) != s.masks[i] {
				continue next
			}
		}
		return s
	}
	return nil
}

// find returns the installed entry with e's match key and priority —
// the P4Runtime identity modify and delete address, and what makes an
// insert a duplicate — or nil. e need not be installed.
func (t *tableState) find(e *TableEntry) *TableEntry {
	if t == nil {
		return nil
	}
	s := t.signatureOf(e)
	if s == nil {
		return nil
	}
	for a := s.byKey[maskedKey(e, s.masks)]; a != nil; a = a.chain {
		if matchesEqual(a, e) {
			return a
		}
	}
	return nil
}

// sign files e under its signature (registering a new one if need be)
// and its key hash.
func (t *tableState) sign(e *TableEntry) {
	s := t.signatureOf(e)
	if s == nil {
		s = &signature{masks: make([]sym.BV, len(e.Matches)), byKey: make(map[uint64]*TableEntry)}
		for i := range e.Matches {
			s.masks[i] = e.Matches[i].ternaryMask(t.ti.KeyWidths[i])
			s.spec += s.masks[i].PopCount()
		}
		t.sigs = append(t.sigs, s)
	}
	s.refs++
	e.sig, e.key = s, maskedKey(e, s.masks)
	link(e)
}

// unsign takes e out of its signature, retiring a signature no
// installed entry uses any more so probes stop visiting it.
func (t *tableState) unsign(e *TableEntry) {
	unlink(e)
	e.sig.refs--
	if e.sig.refs == 0 {
		t.sigs = slices.DeleteFunc(t.sigs, func(s *signature) bool { return s == e.sig })
	}
}

func link(e *TableEntry) {
	e.chain = e.sig.byKey[e.key]
	e.sig.byKey[e.key] = e
}

func unlink(e *TableEntry) {
	s := e.sig
	switch head := s.byKey[e.key]; {
	case head != e:
		for head.chain != e {
			head = head.chain
		}
		head.chain = e.chain
	case e.chain == nil:
		delete(s.byKey, e.key)
	default:
		s.byKey[e.key] = e.chain
	}
	e.chain = nil
}

// maskedKey hashes e's match values under masks.
func maskedKey(e *TableEntry, masks []sym.BV) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := range e.Matches {
		v := e.Matches[i].Value.And(masks[i])
		h = sym.Mix64(h^v.Lo) + v.Hi
	}
	return h
}

// agree reports whether a and b carry the same match values under masks.
func agree(a, b *TableEntry, masks []sym.BV) bool {
	for i, m := range masks {
		if !a.Matches[i].Value.Xor(b.Matches[i].Value).And(m).IsZero() {
			return false
		}
	}
	return true
}

// subset reports whether every bit of a is also set in b, per key.
func subset(a, b []sym.BV) bool {
	for i := range a {
		if a[i].And(b[i]) != a[i] {
			return false
		}
	}
	return true
}

// covers reports whether a matches every packet b matches: a's masks
// are a subset of b's and the two agree on a's masks.
func covers(a, b *TableEntry) bool {
	if a.sig == b.sig {
		return a.key == b.key && agree(a, b, a.sig.masks)
	}
	return a.sig.spec < b.sig.spec && subset(a.sig.masks, b.sig.masks) && agree(a, b, a.sig.masks)
}

// covered reports whether an installed entry ahead of e covers it —
// by transitivity, whether an active one does.
func (t *tableState) covered(e *TableEntry) bool {
	for _, s := range t.sigs {
		h := e.key
		if s != e.sig {
			// Distinct signatures differ in some bit, so a subset of
			// e's masks has strictly fewer bits set.
			if s.spec >= e.sig.spec || !subset(s.masks, e.sig.masks) {
				continue
			}
			h = maskedKey(e, s.masks)
		}
		for a := s.byKey[h]; a != nil; a = a.chain {
			if a.Before(e) && agree(a, e, s.masks) {
				return true
			}
		}
	}
	return false
}

// position is the index at which e sits, or would be inserted, in a
// match-ordered list.
func position(list []*TableEntry, e *TableEntry) int {
	return sort.Search(len(list), func(i int) bool { return !list[i].Before(e) })
}

// activeInsert splices e into the active list at i.
func (t *tableState) activeInsert(i int, e *TableEntry) {
	t.active = slices.Insert(t.active, i, e)
	t.countMasks(e, 1)
	if t.chain != nil {
		t.chain.insert(i)
	}
}

// activeDelete takes active[i] out of the active list.
func (t *tableState) activeDelete(i int) {
	t.countMasks(t.active[i], -1)
	t.active = slices.Delete(t.active, i, i+1)
	if t.chain != nil {
		t.chain.remove(i)
	}
}

func (t *tableState) countMasks(e *TableEntry, d int) {
	if t.masked == nil {
		t.masked = make([]int, len(t.ti.KeyWidths))
	}
	for k, m := range e.sig.masks {
		if !m.IsAllOnes() {
			t.masked[k] += d
		}
	}
}

// ActiveMasked reports whether some active entry of the table matches
// key component key under a mask that is not all-ones — a ternary mask
// with a clear bit, a prefix shorter than the key, an omitted optional.
// The answer is counted as entries enter and leave the active list, not
// scanned for.
func (c *Config) ActiveMasked(table string, key int) bool {
	t := c.tables[table]
	return t != nil && t.masked != nil && t.masked[key] > 0
}

// place files a signed entry under active or eclipsed.
func (t *tableState) place(e *TableEntry) {
	if t.covered(e) {
		t.eclipsed = slices.Insert(t.eclipsed, position(t.eclipsed, e), e)
		return
	}
	i := position(t.active, e)
	t.activeInsert(i, e)
	// Whatever e covers further down the order is unreachable from now
	// on. (An entry appended in match order has nothing after it.)
	for i++; i < len(t.active); {
		if b := t.active[i]; covers(e, b) {
			t.activeDelete(i)
			t.eclipsed = slices.Insert(t.eclipsed, position(t.eclipsed, b), b)
		} else {
			i++
		}
	}
}

func (t *tableState) insert(e *TableEntry) {
	t.entries = append(t.entries, e)
	t.sign(e)
	t.place(e)
}

// installedAt is old's index in the insertion-ordered list.
func (t *tableState) installedAt(old *TableEntry) int {
	return sort.Search(len(t.entries), func(i int) bool { return t.entries[i].seq >= old.seq })
}

// listed returns whichever of the two match-ordered lists holds old,
// and where.
func (t *tableState) listed(old *TableEntry) (*[]*TableEntry, int) {
	if i := position(t.eclipsed, old); i < len(t.eclipsed) && t.eclipsed[i] == old {
		return &t.eclipsed, i
	}
	return &t.active, position(t.active, old)
}

// replace installs e over old, which has the same match key and
// priority: e inherits its sequence number, signature and place — and,
// if active, its spine link's match condition; only the assignments
// from the link up are invalidated.
func (t *tableState) replace(old, e *TableEntry) {
	e.seq, e.sig, e.key = old.seq, old.sig, old.key
	t.entries[t.installedAt(old)] = e
	list, i := t.listed(old)
	(*list)[i] = e
	if list == &t.active && t.chain != nil {
		t.chain.touch(i)
	}
	unlink(old)
	link(e)
}

func (t *tableState) remove(e *TableEntry) {
	i := t.installedAt(e)
	t.entries = slices.Delete(t.entries, i, i+1)
	t.unsign(e)
	list, i := t.listed(e)
	if list == &t.eclipsed {
		t.eclipsed = slices.Delete(t.eclipsed, i, i+1)
		return
	}
	t.activeDelete(i)
	// The eclipsed entries e covered are reachable again unless
	// something else ahead of them covers them too — possibly an entry
	// this loop has just freed, hence match order.
	kept := t.eclipsed[:0]
	for _, b := range t.eclipsed {
		if e.Before(b) && covers(e, b) && !t.covered(b) {
			t.activeInsert(position(t.active, b), b)
		} else {
			kept = append(kept, b)
		}
	}
	clear(t.eclipsed[len(kept):])
	t.eclipsed = kept
}
