// /exec wire round-trip suite: the hosted packet-execution endpoint
// must be observationally identical to a local exec-enabled engine fed
// the same config, and every malformed-packet and wrong-session shape
// must map to the documented status code and flayerr sentinel.
package server_test

import (
	"errors"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/flayerr"
	"repro/internal/progs"
	"repro/internal/server"
	"repro/internal/wire"
)

// execDaemon starts a daemon with one exec-enabled session ("jit") and
// one plain session ("plain"), both on the named catalog program.
func execDaemon(t *testing.T, prog string) *testDaemon {
	t.Helper()
	d := startDaemon(t, server.Config{})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "jit", Catalog: prog, Exec: true}); err != nil {
		t.Fatalf("creating exec session: %v", err)
	}
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "plain", Catalog: prog}); err != nil {
		t.Fatalf("creating plain session: %v", err)
	}
	return d
}

// TestExecRoundTrip: packets executed over the wire come back with the
// same verdicts a local exec-enabled engine produces for the same
// program, config, and frames — before and after the representative
// config lands.
func TestExecRoundTrip(t *testing.T) {
	const prog = "nat44"
	d := execDaemon(t, prog)

	p, err := progs.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	local, err := p.LoadWith(core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}

	packets, ports := randomPackets(11, 64)
	check := func(stage string) {
		t.Helper()
		resp, err := d.c.ExecBytes("jit", packets, ports)
		if err != nil {
			t.Fatalf("%s: ExecBytes: %v", stage, err)
		}
		want, err := local.ExecBatch(packets, ports)
		if err != nil {
			t.Fatalf("%s: local ExecBatch: %v", stage, err)
		}
		sameExecResults(t, stage, resp.Results, want)
	}

	check("initial config")

	updates := p.Representative()
	if _, err := d.c.Write("jit", wire.ModeBatch, updates); err != nil {
		t.Fatalf("representative write: %v", err)
	}
	local.ApplyBatch(updates)
	check("representative config")

	// The response's epoch correlates with the engine's published state:
	// after verdict-changing writes it must have advanced past the
	// initial one.
	resp, err := d.c.ExecBytes("jit", packets[:1], ports[:1])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch == 0 {
		t.Fatalf("epoch not reported after %d updates", len(updates))
	}
}

// TestExecErrors: every /exec error path maps to the documented status
// code, and the wire code unwraps to the matching flayerr sentinel
// through the client.
func TestExecErrors(t *testing.T) {
	d := execDaemon(t, "fig3")
	ok := []wire.Packet{{W: 1, Hex: "a0"}}

	cases := []struct {
		name     string
		status   int
		sentinel error
		run      func() error
	}{
		{"unknown session", http.StatusNotFound, nil, func() error {
			_, err := d.c.Exec("ghost", ok)
			return err
		}},
		{"exec disabled", http.StatusConflict, flayerr.ErrExecDisabled, func() error {
			_, err := d.c.Exec("plain", ok)
			return err
		}},
		{"no packets", http.StatusBadRequest, flayerr.ErrBadPacket, func() error {
			_, err := d.c.Exec("jit", nil)
			return err
		}},
		{"too many packets", http.StatusBadRequest, flayerr.ErrBadPacket, func() error {
			_, err := d.c.Exec("jit", make([]wire.Packet, wire.MaxExecPackets+1))
			return err
		}},
		{"negative length", http.StatusBadRequest, flayerr.ErrBadPacket, func() error {
			_, err := d.c.Exec("jit", []wire.Packet{{W: -1}})
			return err
		}},
		{"oversized packet", http.StatusBadRequest, flayerr.ErrBadPacket, func() error {
			_, err := d.c.Exec("jit", []wire.Packet{{W: wire.MaxPacketBytes + 1,
				Hex: strings.Repeat("00", wire.MaxPacketBytes+1)}})
			return err
		}},
		{"hex length mismatch", http.StatusBadRequest, flayerr.ErrBadPacket, func() error {
			_, err := d.c.Exec("jit", []wire.Packet{{W: 2, Hex: "abc"}})
			return err
		}},
		{"bad hex digit", http.StatusBadRequest, flayerr.ErrBadPacket, func() error {
			_, err := d.c.Exec("jit", []wire.Packet{ok[0], {W: 1, Hex: "zz"}})
			return err
		}},
		{"uppercase hex", http.StatusBadRequest, flayerr.ErrBadPacket, func() error {
			_, err := d.c.Exec("jit", []wire.Packet{{W: 1, Hex: "A0"}})
			return err
		}},
	}
	for _, c := range cases {
		err := c.run()
		if !client.IsStatus(err, c.status) {
			t.Errorf("%s: got %v, want HTTP %d", c.name, err, c.status)
			continue
		}
		if c.sentinel != nil && !errors.Is(err, c.sentinel) {
			t.Errorf("%s: %v does not unwrap to %v", c.name, err, c.sentinel)
		}
	}

	// Raw malformed bodies (the client can't produce these): unknown
	// field, truncated JSON, wrong top-level shape, future version.
	for _, body := range []string{
		`{"packets":[],"bogus":1}`,
		`{"packets":[`,
		`[]`,
		`{"version":99,"packets":[{"w":0,"hex":""}]}`,
	} {
		resp, err := http.Post(d.ts.URL+"/v1/sessions/jit/exec", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed body %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	// Oversized body → 413, same as the write path.
	d2 := startDaemon(t, server.Config{MaxBody: 1024})
	if _, err := d2.c.CreateSession(wire.CreateSessionRequest{Name: "jit", Catalog: "fig3", Exec: true}); err != nil {
		t.Fatal(err)
	}
	big := strings.NewReader(`{"packets":[` + strings.Repeat(`{"w":0,"hex":""},`, 4096) + `{}]}`)
	resp, err := http.Post(d2.ts.URL+"/v1/sessions/jit/exec", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
}

// sameExecResults fails unless the wire results match local ones.
func sameExecResults(t *testing.T, label string, got []wire.ExecResult, want []dpexec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if w := wire.FromExecResult(want[i]); !reflect.DeepEqual(got[i], w) {
			t.Fatalf("%s: packet %d: %+v, want %+v", label, i, got[i], w)
		}
	}
}

// randomPackets draws n frames of up to 96 bytes with ingress ports.
func randomPackets(seed int64, n int) ([][]byte, []uint16) {
	r := rand.New(rand.NewSource(seed))
	packets := make([][]byte, n)
	ports := make([]uint16, n)
	for i := range packets {
		packets[i] = make([]byte, r.Intn(96))
		r.Read(packets[i])
		ports[i] = uint16(r.Intn(64))
	}
	return packets, ports
}

// TestExecSurvivesWarmRestart: a session created with the executor
// comes back from its shutdown snapshot with the executor running and
// the same program label, and /exec answers what it answered before.
func TestExecSurvivesWarmRestart(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, server.Config{SnapshotDir: dir})
	info, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "jit", Catalog: "fig3", Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Write("jit", wire.ModeBatch, progs.Fig3Updates()); err != nil {
		t.Fatal(err)
	}
	packets, ports := randomPackets(5, 32)
	before, err := d.c.ExecBytes("jit", packets, ports)
	if err != nil {
		t.Fatalf("exec before the restart: %v", err)
	}
	if err := d.srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	d.ts.Close()

	d = startDaemon(t, server.Config{SnapshotDir: dir})
	info2, err := d.c.Session("jit")
	if err != nil {
		t.Fatal(err)
	}
	if info2.Program != info.Program {
		t.Fatalf("program label %q after the restart, %q before", info2.Program, info.Program)
	}
	after, err := d.c.ExecBytes("jit", packets, ports)
	if err != nil {
		t.Fatalf("exec after the restart: %v", err)
	}
	if !reflect.DeepEqual(after.Results, before.Results) {
		t.Fatal("exec results changed across the restart")
	}
}
