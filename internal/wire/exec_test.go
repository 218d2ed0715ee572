package wire

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dpexec"
	"repro/internal/flayerr"
)

// TestPacketRoundTrip: FromPacket ∘ ToPacket is the identity on raw
// bytes, for every length up to the cap's neighborhood.
func TestPacketRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 64, 1500, MaxPacketBytes} {
		data := make([]byte, n)
		r.Read(data)
		p := FromPacket(data, uint16(n%512))
		if p.W != n || len(p.Hex) != 2*n || p.Port != uint16(n%512) {
			t.Fatalf("FromPacket(%d bytes) = {w:%d hex:%d port:%d}", n, p.W, len(p.Hex), p.Port)
		}
		got, err := ToPacket(p)
		if err != nil {
			t.Fatalf("ToPacket(%d bytes): %v", n, err)
		}
		if string(got) != string(data) {
			t.Fatalf("round trip of %d bytes diverged", n)
		}
	}
}

// TestToPacketErrors: every malformed packet shape maps to the
// ErrBadPacket sentinel (and through CodeOf to the bad_packet wire
// code), mirroring the error-code round-trip suite.
func TestToPacketErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Packet
	}{
		{"negative-length", Packet{W: -1}},
		{"over-cap", Packet{W: MaxPacketBytes + 1, Hex: strings.Repeat("00", MaxPacketBytes+1)}},
		{"hex-too-short", Packet{W: 4, Hex: "0a0b0c"}},
		{"hex-too-long", Packet{W: 1, Hex: "0a0b"}},
		{"uppercase-hex", Packet{W: 2, Hex: "0A0b"}},
		{"non-hex-digit", Packet{W: 2, Hex: "0g0b"}},
		{"whitespace", Packet{W: 2, Hex: "0a b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ToPacket(tc.p)
			if err == nil {
				t.Fatalf("ToPacket(%+v) accepted malformed packet", tc.p)
			}
			if !errors.Is(err, flayerr.ErrBadPacket) {
				t.Fatalf("err = %v, want errors.Is ErrBadPacket", err)
			}
			if code := CodeOf(err); code != CodeBadPacket {
				t.Fatalf("CodeOf = %q, want %q", code, CodeBadPacket)
			}
		})
	}
}

// TestExecRequestErrors: request-level validation.
func TestExecRequestErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		r := ExecRequest{}
		if _, _, err := r.ToPackets(); !errors.Is(err, flayerr.ErrBadPacket) {
			t.Fatalf("err = %v, want ErrBadPacket", err)
		}
	})
	t.Run("too-many", func(t *testing.T) {
		r := ExecRequest{Packets: make([]Packet, MaxExecPackets+1)}
		if _, _, err := r.ToPackets(); !errors.Is(err, flayerr.ErrBadPacket) {
			t.Fatalf("err = %v, want ErrBadPacket", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		r := ExecRequest{Version: Version + 1, Packets: []Packet{{W: 0}}}
		if _, _, err := r.ToPackets(); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("bad-member", func(t *testing.T) {
		r := ExecRequest{Packets: []Packet{{W: 1, Hex: "ab"}, {W: 2, Hex: "xz"}}}
		_, _, err := r.ToPackets()
		if !errors.Is(err, flayerr.ErrBadPacket) {
			t.Fatalf("err = %v, want ErrBadPacket", err)
		}
		if !strings.Contains(err.Error(), "packet 1") {
			t.Fatalf("error %q does not name the offending packet", err)
		}
	})
	t.Run("valid", func(t *testing.T) {
		r := ExecRequest{Packets: []Packet{{W: 2, Hex: "abcd", Port: 7}, {W: 0, Hex: ""}}}
		packets, ports, err := r.ToPackets()
		if err != nil {
			t.Fatal(err)
		}
		if len(packets) != 2 || packets[0][0] != 0xab || ports[0] != 7 || len(packets[1]) != 0 {
			t.Fatalf("unexpected decode: %v %v", packets, ports)
		}
	})
}

// TestFromExecResult: dropped results omit the emitted frame; live
// results carry it in wire form.
func TestFromExecResult(t *testing.T) {
	dropped := FromExecResult(dpexec.Result{Dropped: true, ParserRejected: true})
	if !dropped.Dropped || !dropped.ParserRejected || dropped.Emitted != nil {
		t.Fatalf("dropped result malformed: %+v", dropped)
	}
	live := FromExecResult(dpexec.Result{EgressPort: 3, Emitted: []byte{0xde, 0xad}})
	if live.Dropped || live.Emitted == nil || live.Emitted.Hex != "dead" || live.Emitted.W != 2 {
		t.Fatalf("live result malformed: %+v", live)
	}
	if live.EgressPort != 3 {
		t.Fatalf("egress port lost: %+v", live)
	}
}

// TestExecCodesRoundTrip pins the new codes into the CodeOf/SentinelOf
// bijection next to the existing ones.
func TestExecCodesRoundTrip(t *testing.T) {
	for _, sentinel := range []error{flayerr.ErrExecDisabled, flayerr.ErrBadPacket} {
		code := CodeOf(sentinel)
		if code == "" {
			t.Fatalf("CodeOf(%v) unclassified", sentinel)
		}
		if back := SentinelOf(code); back != sentinel {
			t.Fatalf("SentinelOf(%q) = %v, want %v", code, back, sentinel)
		}
	}
}

// TestExecCodecScansCanonicalForm: the canonical form, README's curl
// example included, is scanned; the spellings outside it reach the
// reference decoder, which accepts these.
func TestExecCodecScansCanonicalForm(t *testing.T) {
	for body, want := range map[string]bool{
		"{\n  \"packets\": [{\"w\":3, \"hex\":\"08004f\", \"port\":1}]\n}": true,
		`{"version":1,"packets":[{"hex":"","w":0},{}]}`:                    true,
		`{"Packets":[{"w":1,"hex":"00"}]}`:                                 false,
		`{"packets":[{"w":1,"hex":"0\u0030"}]}`:                            false,
		`{"packets":[{"w":1,"w":1,"hex":"00"}]}`:                           false,
		`{"packets":[{"w":1,"hex":"00","port":null}]}`:                     false,
	} {
		_, _, scanned, err := decodeExecRequest(strings.NewReader(body), 0)
		if err != nil || scanned != want {
			t.Errorf("%s: scanned %v, err %v; want scanned %v", body, scanned, err, want)
		}
	}
}
