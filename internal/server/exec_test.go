// /exec wire round-trip suite: the hosted packet-execution endpoint
// must be observationally identical to a local exec-enabled engine fed
// the same config, and every malformed-packet and wrong-session shape
// must map to the documented status code and flayerr sentinel.
package server_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/flayerr"
	"repro/internal/progs"
	"repro/internal/server"
	"repro/internal/sym"
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

	// Raw bodies the client can't produce: unknown field, truncated
	// JSON, wrong top-level shape, future version, and the spellings
	// outside the exec codec's canonical form, which the strict decoder
	// answers as it always has. The accepted ones run the same frame
	// as the canonical body and answer the same bytes.
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(d.ts.URL+"/v1/sessions/jit/exec", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	_, canonical := post(`{"packets":[{"w":1,"hex":"a0"}]}`)
	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"packets":[],"bogus":1}`, http.StatusBadRequest},
		{`{"packets":[`, http.StatusBadRequest},
		{`[]`, http.StatusBadRequest},
		{`{"version":99,"packets":[{"w":0,"hex":""}]}`, http.StatusBadRequest},
		{`{"Packets":[{"W":1,"Hex":"a0"}]}`, http.StatusOK},
		{`{"packets":[{"w":1,"hex":"a\u0030"}]}`, http.StatusOK},
		{`{"packets":[{"w":2,"w":1,"hex":"a0"}]}`, http.StatusOK},
		{`{"packets":[{"w":1,"hex":"a0","port":null}]}`, http.StatusOK},
		{`{"packets":[{"w":1,"hex":0}]}`, http.StatusBadRequest},
		{`{"packets":[{"w":1,"hex":"a0","port":70000}]}`, http.StatusBadRequest},
		{`{"packets":[{"w":1.0,"hex":"a0"}]}`, http.StatusBadRequest},
		{`{"packets":[{"w":1e0,"hex":"a0"}]}`, http.StatusBadRequest},
		{`{"packets":[{"w":-1,"hex":""}]}`, http.StatusBadRequest},
		{`{"packets":[{"w":1,"hex":"a0"}]} {}`, http.StatusBadRequest},
	} {
		status, out := post(c.body)
		if status != c.status {
			t.Errorf("body %s: HTTP %d, want %d", c.body, status, c.status)
		}
		if status == http.StatusOK && out != canonical {
			t.Errorf("body %s answered %q, the canonical body %q", c.body, out, canonical)
		}
	}

	// The client writes its bodies with wire.AppendExecRequest, whose
	// bytes the wire package's tests hold to json.Marshal and to the
	// canonical scan: the handler never falls back to the strict decoder
	// for them.
	var sent [][]byte
	rec := client.New(d.ts.URL).WithHTTPClient(&http.Client{Transport: recordBodies{&sent}})
	packets, ports := randomPackets(3, 64)
	if _, err := rec.ExecBytes("jit", packets, ports); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Exec("jit", []wire.Packet{ok[0], wire.FromPacket(packets[1], 9)}); err != nil {
		t.Fatal(err)
	}
	a0, err := wire.ToPacket(ok[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]byte{
		wire.AppendExecRequest(nil, packets, ports),
		wire.AppendExecRequest(nil, [][]byte{a0, packets[1]}, []uint16{0, 9}),
	} {
		if i >= len(sent) || !bytes.Equal(sent[i], want) {
			t.Errorf("client body %d is not AppendExecRequest's: %.80q", i, sent)
		}
	}

	// Oversized body → 413, same as the write path.
	d2 := startDaemon(t, server.Config{MaxBody: 1024})
	if _, err := d2.c.CreateSession(wire.CreateSessionRequest{Name: "jit", Catalog: "fig3", Exec: true}); err != nil {
		t.Fatal(err)
	}
	// The second body breaks inside the decoder's first read, well
	// before the cap: over the cap is 413 whatever the bytes.
	for _, big := range []string{
		`{"packets":[` + strings.Repeat(`{"w":0,"hex":""},`, 4096) + `{}]}`,
		`{"packets":]` + strings.Repeat("x", 4096),
	} {
		resp, err := http.Post(d2.ts.URL+"/v1/sessions/jit/exec", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body %.16q: HTTP %d, want 413", big, resp.StatusCode)
		}
	}
}

// recordBodies is a transport that keeps a copy of every request body.
type recordBodies struct{ bodies *[][]byte }

func (rb recordBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	*rb.bodies = append(*rb.bodies, body)
	req.Body = io.NopCloser(bytes.NewReader(body))
	return http.DefaultTransport.RoundTrip(req)
}

// TestExecEpochNamesTheImage: /exec races a writer that flips a frame
// between forwarded and dropped at every epoch, and every response's
// results are what a local executor returns at the epoch the response
// names.
func TestExecEpochNamesTheImage(t *testing.T) {
	d := execDaemon(t, "fig3")
	entry := &controlplane.TableEntry{
		Matches: []controlplane.FieldMatch{{Kind: controlplane.MatchTernary, Value: sym.NewBV(48, 0), Mask: sym.NewBV(48, 0)}},
		Action:  "drop",
	}
	flips := []*controlplane.Update{
		{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table", Entry: entry},
		{Kind: controlplane.DeleteEntry, Table: "Ingress.eth_table", Entry: entry},
	}
	frame := []byte{0, 0, 0, 0, 0xbe, 0xef, 0, 0, 0, 0, 0, 1, 0x08, 0x00}
	packets := [][]byte{frame, frame}

	// want[true] is the drop-all configuration, want[false] the empty one.
	want := map[bool][]dpexec.Result{}
	local, err := progs.Fig3().LoadWith(core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	for _, dropping := range []bool{false, true} {
		if dropping {
			local.Apply(flips[0])
		}
		if want[dropping], err = local.ExecBatch(packets, nil); err != nil {
			t.Fatal(err)
		}
	}
	if want[false][0].Dropped || !want[true][0].Dropped {
		t.Fatal("the flip does not flip the frame")
	}

	info, err := d.c.Session("jit")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	dropping := map[uint64]bool{info.Epoch: false}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := d.c.Write("jit", wire.ModeBatch, flips[i%2:i%2+1]); err != nil {
				t.Error(err)
				return
			}
			info, err := d.c.Session("jit")
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			dropping[info.Epoch] = i%2 == 0
			mu.Unlock()
		}
	}()
	var resps []wire.ExecResponse
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		resp, err := d.c.ExecBytes("jit", packets, nil)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	for _, resp := range resps {
		state, ok := dropping[resp.Epoch]
		if !ok {
			t.Fatalf("response names epoch %d, which the writer never saw published", resp.Epoch)
		}
		sameExecResults(t, fmt.Sprintf("epoch %d", resp.Epoch), resp.Results, want[state])
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

// TestExecDeclaredLengthReservesNothing: a request that declares a
// body up to the size cap and sends a few bytes of it is answered like
// any truncated body, and the server reserves memory for what arrived,
// not for what the header declared.
func TestExecDeclaredLengthReservesNothing(t *testing.T) {
	d := execDaemon(t, "fig3")
	conn, err := net.Dial("tcp", d.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /v1/sessions/jit/exec HTTP/1.1\r\nHost: flayd\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n{\"packets\":[", wire.DefaultMaxBody)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: HTTP %d, want 400", resp.StatusCode)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > wire.DefaultMaxBody/8 {
		t.Errorf("a %d-byte declared body allocated %d bytes before its bytes arrived", wire.DefaultMaxBody, grown)
	}
}
