package bmv2

import (
	"math/rand"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// TestDifferentialSoundness is the central soundness property of the
// whole system: for random control-plane configurations and random
// packets, the specialized program is observationally equivalent to the
// original program. This is the guarantee that lets Flay install the
// specialized implementation on the device.
func TestDifferentialSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for round := 0; round < 25; round++ {
		s, err := core.NewFromSource("diff", routerSrc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Random config: up to 8 LPM entries, sometimes a default
		// override.
		n := r.Intn(8)
		for i := 0; i < n; i++ {
			action := "fwd"
			params := []sym.BV{sym.NewBV(9, uint64(r.Intn(512)))}
			if r.Intn(4) == 0 {
				action, params = "drop", nil
			}
			up := &controlplane.Update{
				Kind: controlplane.InsertEntry, Table: "Ingress.route",
				Entry: &controlplane.TableEntry{
					Matches: []controlplane.FieldMatch{{
						Kind:      controlplane.MatchLPM,
						Value:     sym.NewBV(32, uint64(r.Uint32())),
						PrefixLen: r.Intn(33),
					}},
					Action: action, Params: params,
				},
			}
			s.Apply(up) // duplicates may be rejected; fine
		}
		if r.Intn(3) == 0 {
			s.Apply(&controlplane.Update{
				Kind: controlplane.SetDefault, Table: "Ingress.route",
				Default: controlplane.ActionCall{Name: "NoAction"},
			})
		}
		comparePrograms(t, r, s, 40, func() Packet {
			dst := uint32(r.Uint32())
			ttl := byte(r.Intn(256))
			data := ipv4Packet(uint64(r.Int63())&0xFFFFFFFFFFFF, ttl, dst)
			if r.Intn(4) == 0 {
				data[12], data[13] = byte(r.Intn(256)), byte(r.Intn(256)) // random ethertype
			}
			if r.Intn(5) == 0 {
				data = data[:r.Intn(len(data))] // truncated packet
			}
			if r.Intn(3) == 0 {
				data = append(data, make([]byte, r.Intn(16))...) // payload
			}
			return Packet{Data: data, IngressPort: uint16(r.Intn(512))}
		})
	}
}

// comparePrograms runs original vs specialized on generated packets.
func comparePrograms(t *testing.T, r *rand.Rand, s *core.Specializer, packets int, gen func() Packet) {
	t.Helper()
	spec := s.SpecializedProgram()
	specInfo, err := typecheck.Check(spec)
	if err != nil {
		t.Fatalf("specialized program fails typecheck: %v\n%s", err, ast.Print(spec))
	}
	orig := New(s.Prog, s.Info, s.Cfg)
	specialized := New(spec, specInfo, s.Cfg)
	for i := 0; i < packets; i++ {
		pkt := gen()
		r1, err1 := orig.Run(pkt)
		r2, err2 := specialized.Run(pkt)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence: %v vs %v\nspecialized:\n%s", err1, err2, ast.Print(spec))
		}
		if err1 != nil {
			continue
		}
		if !r1.Equal(r2) {
			t.Fatalf("packet %x:\noriginal:    %+v\nspecialized: %+v\nprogram:\n%s",
				pkt.Data, r1, r2, ast.Print(spec))
		}
	}
}

// fig3DiffSrc is the Fig. 3 program, for differential checks across the
// whole update evolution.
const fig3DiffSrc = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> type; }
struct headers { ethernet_t eth; }
struct metadata { }
parser MyParser(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Ingress(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action set(bit<16> type) { hdr.eth.type = type; }
    action drop() { mark_to_drop(std); }
    action noop() { }
    table eth_table {
        key = { hdr.eth.dst: ternary; }
        actions = { set; drop; noop; }
        default_action = noop;
    }
    apply {
        eth_table.apply();
        std.egress_port = 9w1;
    }
}
`

// TestDifferentialFig3Evolution checks observational equivalence after
// every step of the Fig. 3 sequence.
func TestDifferentialFig3Evolution(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s, err := core.NewFromSource("fig3", fig3DiffSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entry := func(key, mask uint64, action string, params ...sym.BV) *controlplane.TableEntry {
		return &controlplane.TableEntry{
			Matches: []controlplane.FieldMatch{{
				Kind: controlplane.MatchTernary, Value: sym.NewBV(48, key), Mask: sym.NewBV(48, mask),
			}},
			Action: action, Params: params,
		}
	}
	gen := func() Packet {
		var data []byte
		// Half the packets target the configured keys.
		dst := uint64(r.Int63()) & 0xFFFFFFFFFFFF
		if r.Intn(2) == 0 {
			dst = uint64([]int{0x1, 0x2, 0x5, 0x6, 0x7, 0xD}[r.Intn(6)])
		}
		for i := 5; i >= 0; i-- {
			data = append(data, byte(dst>>(8*i)))
		}
		data = append(data, 1, 2, 3, 4, 5, 6, 0x08, 0x00)
		return Packet{Data: data}
	}
	steps := []*controlplane.Update{
		nil, // initial empty config
		{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table", Entry: entry(0x1, 0x0, "set", sym.NewBV(16, 0x800))},
		{Kind: controlplane.DeleteEntry, Table: "Ingress.eth_table", Entry: entry(0x1, 0x0, "set", sym.NewBV(16, 0x800))},
		{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table", Entry: entry(0x2, 0xFFFFFFFFFFFF, "set", sym.NewBV(16, 0x900))},
		{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table", Entry: entry(0x5, 0x8, "set", sym.NewBV(16, 0x700))},
		{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table", Entry: entry(0x6, 0x7, "set", sym.NewBV(16, 0x200))},
		{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table", Entry: entry(0xD, 0xFFFFFFFFFFFF, "drop")},
	}
	for si, up := range steps {
		if up != nil {
			if d := s.Apply(up); d.Kind == core.Rejected {
				t.Fatalf("step %d rejected: %v", si, d.Err)
			}
		}
		comparePrograms(t, r, s, 60, gen)
	}
}

// TestDifferentialParserPruning: pruned select cases must not change
// emitted packets. The specialized parser keeps every extract, so the
// trailer nothing reads is still extracted.
func TestDifferentialParserPruning(t *testing.T) {
	src := `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> type; }
header vlan_t { bit<16> tci; bit<16> next; }
header trailer_t { bit<32> crc; }
struct headers { ethernet_t eth; vlan_t vlan; trailer_t trailer; }
struct metadata { }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    value_set<bit<16>>(4) vlan_types;
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.type) {
            vlan_types: parse_vlan;
            default: parse_trailer;
        }
    }
    state parse_vlan {
        pkt.extract(hdr.vlan);
        transition parse_trailer;
    }
    state parse_trailer {
        pkt.extract(hdr.trailer);
        transition accept;
    }
}
control C(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    apply {
        if (hdr.vlan.isValid()) {
            std.egress_port = hdr.vlan.tci[8:0];
        } else {
            std.egress_port = 9w1;
        }
    }
}
`
	r := rand.New(rand.NewSource(17))
	s, err := core.NewFromSource("prune", src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() Packet {
		data := make([]byte, 14+4+4+r.Intn(8))
		r.Read(data)
		if r.Intn(2) == 0 {
			data[12], data[13] = 0x81, 0x00
		}
		return Packet{Data: data}
	}
	// Unconfigured VLAN value set: the vlan path is pruned.
	comparePrograms(t, r, s, 80, gen)

	// Configure the VLAN set and compare again.
	d := s.Apply(&controlplane.Update{
		Kind: controlplane.SetValueSet, ValueSet: "P.vlan_types",
		Members: []controlplane.ValueSetMember{{Value: sym.NewBV(16, 0x8100)}},
	})
	if d.Kind == core.Rejected {
		t.Fatal(d.Err)
	}
	comparePrograms(t, r, s, 80, gen)
}
