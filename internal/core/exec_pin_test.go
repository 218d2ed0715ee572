// PinnedExec suite: batch-level image pinning on the exec path. A pin
// must freeze one program+configuration cut for its whole lifetime —
// control-plane churn after PinExec is invisible to the pin and visible
// to the next one — and the pin must be the cheap way to stream packets
// (no per-packet epoch load or machine rental).
package core_test

import (
	"errors"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/flayerr"
	"repro/internal/progs"
	"repro/internal/sym"
)

// fig3Packet builds an ethernet frame (dst, src, type) for fig3's
// parser.
func fig3Packet(dst uint64) []byte {
	pkt := make([]byte, 14)
	for i := 0; i < 6; i++ {
		pkt[i] = byte(dst >> (uint(5-i) * 8))
	}
	pkt[12], pkt[13] = 0x08, 0x00
	return pkt
}

// dropAll is a full-wildcard ternary entry (mask 0 matches every dst).
func dropAll() *controlplane.Update {
	return &controlplane.Update{
		Kind: controlplane.InsertEntry, Table: "Ingress.eth_table",
		Entry: &controlplane.TableEntry{
			Matches: []controlplane.FieldMatch{{
				Kind:  controlplane.MatchTernary,
				Value: sym.NewBV(48, 0),
				Mask:  sym.NewBV(48, 0),
			}},
			Action: "drop",
		},
	}
}

func TestPinnedExecFreezesImage(t *testing.T) {
	s, err := progs.Fig3().LoadWith(core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pkt := fig3Packet(0xbeef)

	before, err := s.Exec(pkt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if before.Dropped {
		t.Fatal("default noop config should not drop")
	}

	pin, err := s.PinExec()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()

	// The configuration changes under the pin: everything now drops.
	if d := s.Apply(dropAll()); d.Kind == core.Rejected {
		t.Fatalf("drop-all rejected: %v", d.Err)
	}
	after, err := s.Exec(pkt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Dropped {
		t.Fatal("drop-all config should drop")
	}

	// The pin still executes the pre-churn cut, for every packet of the
	// stream; a fresh pin sees the new cut.
	for i := 0; i < 16; i++ {
		res, err := pin.Run(fig3Packet(uint64(0xbe00+i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped {
			t.Fatalf("packet %d: pinned image saw the post-pin update", i)
		}
	}
	fresh, err := s.PinExec()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if res, err := fresh.Run(pkt, 1); err != nil || !res.Dropped {
		t.Fatalf("fresh pin: %+v, %v (want the drop-all cut)", res, err)
	}

	// Close is idempotent.
	pin.Close()
	pin.Close()
}

// TestPinnedExecKeepsEpoch: a pin names the epoch whose image it runs,
// and keeps naming it after a publication moves EpochSeq on; a fresh
// pin names the new epoch.
func TestPinnedExecKeepsEpoch(t *testing.T) {
	s, err := progs.Fig3().LoadWith(core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pin, err := s.PinExec()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	before := s.EpochSeq()
	if pin.Epoch() != before {
		t.Fatalf("pin epoch %d, published %d", pin.Epoch(), before)
	}
	if d := s.Apply(dropAll()); d.Kind == core.Rejected {
		t.Fatalf("drop-all rejected: %v", d.Err)
	}
	if s.EpochSeq() == before {
		t.Fatal("the update published no epoch")
	}
	if res, err := pin.Run(fig3Packet(0xbeef), 1); err != nil || res.Dropped || pin.Epoch() != before {
		t.Fatalf("pin after a publication: %+v, %v, epoch %d (want %d, not dropped)", res, err, pin.Epoch(), before)
	}
	fresh, err := s.PinExec()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Epoch() != s.EpochSeq() {
		t.Fatalf("fresh pin epoch %d, published %d", fresh.Epoch(), s.EpochSeq())
	}
}

func TestPinnedExecRequiresExec(t *testing.T) {
	s, err := progs.Fig3().Load()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PinExec(); !errors.Is(err, flayerr.ErrExecDisabled) {
		t.Fatalf("PinExec without Options.Exec = %v, want ErrExecDisabled", err)
	}
}

// TestSnapshotCarriesExec: a snapshot records whether the engine ran the
// executor, and Restore turns it back on from that bit alone; a
// snapshot taken without it restores without it unless Options.Exec
// asks.
func TestSnapshotCarriesExec(t *testing.T) {
	pkt := []byte{0x08, 0x00, 0x4f}
	for _, c := range []struct {
		name            string
		exec, asked, on bool
	}{
		{"exec", true, false, true},
		{"plain", false, false, false},
		{"plain+asked", false, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := progs.Fig3().LoadWith(core.Options{Exec: c.exec})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, u := range progs.Fig3Updates() {
				s.Apply(u)
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.Restore(snap, core.Options{Exec: c.asked})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.Exec(pkt, 1)
			if !c.on {
				if !errors.Is(err, flayerr.ErrExecDisabled) {
					t.Fatalf("restored Exec = %v, want ErrExecDisabled", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("restored Exec: %v", err)
			}
			if want, err := s.Exec(pkt, 1); c.exec && (err != nil || !got.Equal(want)) {
				t.Fatalf("restored Exec = %+v, snapshotting engine %+v (%v)", got, want, err)
			}
		})
	}
}

// BenchmarkExecPinned isolates what the pin buys on a packet stream:
// Exec pays the epoch load and machine rental per packet, the pin pays
// them once.
func BenchmarkExecPinned(b *testing.B) {
	s, err := progs.Fig3().LoadWith(core.Options{Exec: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, u := range progs.Fig3Updates() {
		if d := s.Apply(u); d.Kind == core.Rejected {
			b.Fatal(d.Err)
		}
	}
	pkt := fig3Packet(0xbeef)

	b.Run("per-packet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(pkt, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pinned", func(b *testing.B) {
		pin, err := s.PinExec()
		if err != nil {
			b.Fatal(err)
		}
		defer pin.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pin.Run(pkt, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
