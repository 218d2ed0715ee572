package dpexec_test

import (
	"math/rand"
	"testing"

	"repro/internal/bmv2"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/progs"
	"repro/internal/sym"
)

// checkChunks holds a rebuilt table to what the chunk list promises: the
// chunks spell the active list in order, none is empty or over the cap,
// short ones do not pile up, and the rebuild copied at most maxNew chunks
// — everything else shares the predecessor's arrays.
func checkChunks(t *testing.T, when string, cfg *controlplane.Config, table string, prev, img *dpexec.Image, maxNew int) {
	t.Helper()
	active, _ := cfg.ActiveEntries(table)
	old := make(map[any]bool)
	for _, c := range prev.Chunks(table) {
		old[c.ID] = true
	}
	chunks := img.Chunks(table)
	n, fresh := 0, 0
	for ci, c := range chunks {
		srcs := c.Sources
		if len(srcs) == 0 || len(srcs) > dpexec.ChunkCap {
			t.Fatalf("%s: chunk %d holds %d entries (cap %d)", when, ci, len(srcs), dpexec.ChunkCap)
		}
		for _, src := range srcs {
			if n >= len(active) || src != any(active[n]) {
				t.Fatalf("%s: chunk %d is not the active list at entry %d", when, ci, n)
			}
			n++
		}
		if !old[c.ID] {
			fresh++
		}
	}
	if n != len(active) {
		t.Fatalf("%s: chunks hold %d entries, %d active", when, n, len(active))
	}
	if fresh > maxNew {
		t.Fatalf("%s: rebuild made %d new chunks of %d, want at most %d", when, fresh, len(chunks), maxNew)
	}
	if most := n/dpexec.ChunkMin + 2; len(chunks) > most {
		t.Fatalf("%s: %d entries in %d chunks, want at most %d", when, n, len(chunks), most)
	}
}

// TestRebuildCopiesOneChunk: on a 400-entry five-key ternary ACL a write
// at the head, at the tail or in the middle rebuilds the chunk it lands
// in (and at most a neighbour or a split half) and shares every other
// chunk with its predecessor; streams of head writes, tail writes and random
// writes leave no trail of short chunks; every image hashes like a
// from-scratch compile.
func TestRebuildCopiesOneChunk(t *testing.T) {
	p, err := progs.ByName("middleblock")
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const table = "Ingress.acl_pre_ingress"
	// Ids 1000..1399 leave room under (lower priority) and over them.
	var pre []*controlplane.Update
	for i := 1000; i < 1400; i++ {
		pre = append(pre, progs.MiddleblockACLEntry(i))
	}
	for _, d := range s.ApplyBatch(pre) {
		if d.Kind == core.Rejected {
			t.Fatal(d.Err)
		}
	}
	img, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func(when string, id int, kind controlplane.UpdateKind, maxNew int) {
		t.Helper()
		u := progs.MiddleblockACLEntry(id)
		u.Kind = kind
		if d := s.Apply(u); d.Kind == core.Rejected {
			t.Fatalf("%s: %v", when, d.Err)
		}
		next, err := img.WithTarget(s.Cfg, table)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		checkChunks(t, when, s.Cfg, table, img, next, maxNew)
		img = next
	}
	parity := func(when string) {
		t.Helper()
		full, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if img.Hash() != full.Hash() {
			t.Fatalf("%s: incremental hash %x != full hash %x", when, img.Hash(), full.Hash())
		}
	}

	// One write at each place: the chunk written, plus a split half or a
	// merged neighbour.
	step("head insert", 5000, controlplane.InsertEntry, 3)
	step("head delete", 5000, controlplane.DeleteEntry, 3)
	step("tail insert", 1, controlplane.InsertEntry, 3)
	step("tail delete", 1, controlplane.DeleteEntry, 3)
	step("middle delete", 1200, controlplane.DeleteEntry, 3)
	step("middle insert", 1200, controlplane.InsertEntry, 3)
	parity("single writes")

	// The acl_precise shape, the Tbl. 3 deep probe's shape, and both at
	// once: a hundred writes at one end and back.
	for i := 0; i < 100; i++ {
		step("head stream insert", 2000+i, controlplane.InsertEntry, 3)
	}
	parity("head stream")
	for i := 99; i >= 0; i-- {
		step("head stream delete", 2000+i, controlplane.DeleteEntry, 3)
	}
	for i := 0; i < 100; i++ {
		step("tail stream insert", 999-i, controlplane.InsertEntry, 3)
	}
	parity("tail stream")
	for i := 99; i >= 0; i-- {
		step("tail stream delete", 999-i, controlplane.DeleteEntry, 3)
	}
	parity("streams undone")

	// Random writes anywhere.
	r := rand.New(rand.NewSource(11))
	in := make(map[int]bool)
	for i := 1000; i < 1400; i++ {
		in[i] = true
	}
	for n := 0; n < 600; n++ {
		id := 900 + r.Intn(700)
		if in[id] {
			step("random delete", id, controlplane.DeleteEntry, 3)
		} else {
			step("random insert", id, controlplane.InsertEntry, 3)
		}
		in[id] = !in[id]
		if n%50 == 0 {
			parity("random writes")
		}
	}
	parity("end")
}

// TestChunkedTablesMatchBmv2 churns tables that span many chunks — an LPM
// table, where a write lands anywhere in match order, and two all-exact
// tables behind the index — through WithTarget chains, and holds every
// few steps' image to the hash of a from-scratch compile and, packet for
// packet, to the reference interpreter.
func TestChunkedTablesMatchBmv2(t *testing.T) {
	check := func(t *testing.T, s *core.Specializer, img *dpexec.Image, gen func() ([]byte, uint16)) {
		t.Helper()
		full, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if img.Hash() != full.Hash() {
			t.Fatalf("incremental hash %x != full hash %x", img.Hash(), full.Hash())
		}
		in := bmv2.New(s.Prog, s.Info, s.Cfg)
		m := dpexec.NewMachine()
		for i := 0; i < 60; i++ {
			data, port := gen()
			want, err1 := in.Run(bmv2.Packet{Data: data, IngressPort: port})
			got, err2 := m.Run(img, data, port)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("packet %x: error divergence: %v vs %v", data, err1, err2)
			}
			if err1 == nil && !got.Equal(dpexec.Result{Dropped: want.Dropped, EgressPort: want.EgressPort, McastGrp: want.McastGrp, Emitted: want.Emitted}) {
				t.Fatalf("packet %x:\nbmv2:   %+v\ndpexec: %+v", data, want, got)
			}
		}
	}

	t.Run("lpm", func(t *testing.T) {
		r := rand.New(rand.NewSource(23))
		s, err := core.NewFromSource("router", routerSrc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		img, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		var installed []*controlplane.TableEntry
		gen := func() ([]byte, uint16) {
			dst := r.Uint32()
			if len(installed) > 0 && r.Intn(4) != 0 {
				// Under an installed prefix, low bits free.
				e := installed[r.Intn(len(installed))]
				dst = uint32(e.Matches[0].Value.Uint64()) ^ uint32(r.Intn(4))
			}
			return ipv4Packet(uint64(r.Int63())&0xFFFFFFFFFFFF, byte(r.Intn(256)), dst), uint16(r.Intn(512))
		}
		for step := 0; step < 500; step++ {
			u := &controlplane.Update{Kind: controlplane.InsertEntry, Table: "Ingress.route"}
			if len(installed) > 0 && r.Intn(3) == 0 {
				i := r.Intn(len(installed))
				u.Kind, u.Entry = controlplane.DeleteEntry, installed[i]
				installed = append(installed[:i], installed[i+1:]...)
			} else {
				u.Entry = &controlplane.TableEntry{
					Matches: []controlplane.FieldMatch{{
						Kind: controlplane.MatchLPM, Value: sym.NewBV(32, uint64(r.Uint32())), PrefixLen: 4 + r.Intn(29),
					}},
					Action: "fwd", Params: []sym.BV{sym.NewBV(9, uint64(r.Intn(512)))},
				}
			}
			d := s.Apply(u)
			if d.Kind == core.Rejected {
				if u.Kind == controlplane.DeleteEntry {
					t.Fatalf("step %d: %v", step, d.Err)
				}
				continue // a duplicate prefix
			}
			if u.Kind == controlplane.InsertEntry {
				installed = append(installed, u.Entry)
			}
			next, err := img.WithTarget(s.Cfg, "Ingress.route")
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkChunks(t, "lpm churn", s.Cfg, "Ingress.route", img, next, 3)
			img = next
			if step%25 == 24 {
				check(t, s, img, gen)
			}
		}
		if n := len(img.Chunks("Ingress.route")); n < 4 {
			t.Fatalf("the churn ended on %d chunks: not a multi-chunk test", n)
		}
	})

	t.Run("exact", func(t *testing.T) {
		r := rand.New(rand.NewSource(29))
		s, err := core.NewFromSource("tbl", tblSrc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		img, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := func() ([]byte, uint16) {
			data := make([]byte, 5+r.Intn(4))
			r.Read(data)
			data[0] = 0 // wide's keys are 0..767
			data[1] = byte(r.Intn(3))
			return data, uint16(r.Intn(512))
		}
		fast := func(k int) *controlplane.TableEntry {
			return &controlplane.TableEntry{
				Matches: []controlplane.FieldMatch{{Kind: controlplane.MatchExact, Value: sym.NewBV(8, uint64(k))}},
				Action:  []string{"bump", "drop"}[k%2],
			}
		}
		wide := func(k int) *controlplane.TableEntry {
			return &controlplane.TableEntry{
				Matches: []controlplane.FieldMatch{
					{Kind: controlplane.MatchExact, Value: sym.NewBV(16, uint64(k))},
					{Kind: controlplane.MatchOptional, Value: sym.NewBV(8, uint64(k%7))},
				},
				Action: "setp", Params: []sym.BV{sym.NewBV(9, uint64(k%500)), sym.NewBV(16, uint64(k))},
			}
		}
		inFast, inWide := make(map[int]bool), make(map[int]bool)
		for step := 0; step < 900; step++ {
			table, k, in, mk := "Ing.fast", r.Intn(256), inFast, fast
			if step%3 != 0 {
				table, k, in, mk = "Ing.wide", r.Intn(768), inWide, wide
			}
			u := &controlplane.Update{Kind: controlplane.InsertEntry, Table: table, Entry: mk(k)}
			if in[k] {
				u.Kind = controlplane.DeleteEntry
			}
			in[k] = !in[k]
			if d := s.Apply(u); d.Kind == core.Rejected {
				t.Fatalf("step %d: %v", step, d.Err)
			}
			next, err := img.WithTarget(s.Cfg, table)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkChunks(t, "exact churn", s.Cfg, table, img, next, 3)
			img = next
			if step%30 == 29 {
				check(t, s, img, gen)
			}
		}
		for _, table := range []string{"Ing.fast", "Ing.wide"} {
			if n := len(img.Chunks(table)); n < 3 || !img.Indexed(table) {
				t.Fatalf("%s ended on %d chunks, indexed %v: not a multi-chunk index test", table, n, img.Indexed(table))
			}
		}
	})
}
