// Raw-socket suite for the binary listener: handshake, attach-scoped
// connections, pipelined writes answered out of band by correlation ID,
// stats/snapshot/ping frames, and protocol-error handling.
package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/fuzz"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// startBinDaemon starts a daemon serving both protocols and returns the
// binary listener's address alongside the daemon.
func startBinDaemon(t *testing.T, cfg server.Config) (*testDaemon, string) {
	t.Helper()
	d := startDaemon(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go d.srv.ServeBin(ln)
	return d, ln.Addr().String()
}

// binConn is a minimal raw binary-protocol connection for tests.
type binConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialBin(t *testing.T, addr string) *binConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := binproto.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if err := binproto.ReadHandshake(br); err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	return &binConn{t: t, conn: conn, br: br}
}

func (c *binConn) send(f binproto.Frame) {
	c.t.Helper()
	if err := binproto.WriteFrame(c.conn, f); err != nil {
		c.t.Fatalf("write frame: %v", err)
	}
}

func (c *binConn) recv() binproto.Frame {
	c.t.Helper()
	f, err := binproto.ReadFrame(c.br)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	return f
}

func (c *binConn) attach(a *binproto.Attach) *binproto.AttachOK {
	c.t.Helper()
	c.send(binproto.Frame{Type: binproto.TAttach, Corr: 1, Payload: binproto.AppendAttach(nil, a)})
	f := c.recv()
	if f.Type != binproto.TAttachOK {
		c.t.Fatalf("attach answered frame type %#x", f.Type)
	}
	ok, err := binproto.DecodeAttachOK(f.Payload)
	if err != nil {
		c.t.Fatalf("attach-ok decode: %v", err)
	}
	return ok
}

func TestBinProtocolPipelinedWrites(t *testing.T) {
	d, addr := startBinDaemon(t, server.Config{})
	c := dialBin(t, addr)

	ok := c.attach(&binproto.Attach{Name: "bin", Catalog: "fig3"})
	if !ok.Created || ok.Name != "bin" {
		t.Fatalf("attach: %+v", ok)
	}

	local, _ := localEngine(t, "fig3")
	stream, err := fuzz.New(local.An, 31).Stream(16)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline all writes before reading any response; responses come
	// back keyed by correlation ID, in whatever order they finish.
	const base = 100
	for i, u := range stream {
		c.send(binproto.Frame{Type: binproto.TWrite, Corr: uint64(base + i), Payload: binproto.AppendWrite(nil, &binproto.Write{
			Updates: []*controlplane.Update{u},
		})})
	}
	seen := make(map[uint64]*binproto.WriteOK, len(stream))
	for range stream {
		f := c.recv()
		if f.Type == binproto.TErr {
			e, _ := binproto.DecodeErrMsg(f.Payload)
			t.Fatalf("write corr %d failed: %+v", f.Corr, e)
		}
		if f.Type != binproto.TWriteOK {
			t.Fatalf("unexpected frame type %#x", f.Type)
		}
		w, err := binproto.DecodeWriteOK(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[f.Corr]; dup {
			t.Fatalf("correlation id %d answered twice", f.Corr)
		}
		seen[f.Corr] = w
	}
	for i := range stream {
		w, ok := seen[uint64(base+i)]
		if !ok {
			t.Fatalf("write %d never answered", i)
		}
		if len(w.Decisions) != 1 {
			t.Fatalf("write %d: %d decisions", i, len(w.Decisions))
		}
	}

	// The binary surface and the HTTP surface expose the same session.
	c.send(binproto.Frame{Type: binproto.TStats, Corr: 7})
	f := c.recv()
	if f.Type != binproto.TStatsOK {
		t.Fatalf("stats frame type %#x", f.Type)
	}
	var st wire.Stats
	if err := json.Unmarshal(f.Payload, &st); err != nil {
		t.Fatal(err)
	}
	if st.Updates != len(stream) {
		t.Fatalf("stats over binary: %d updates, want %d", st.Updates, len(stream))
	}
	httpStats, err := d.c.Stats("bin")
	if err != nil {
		t.Fatal(err)
	}
	if httpStats.Updates != st.Updates {
		t.Fatalf("stats diverge across protocols: %d vs %d", httpStats.Updates, st.Updates)
	}

	// Ping and snapshot frames.
	c.send(binproto.Frame{Type: binproto.TPing, Corr: 8})
	if f := c.recv(); f.Type != binproto.TPong || f.Corr != 8 {
		t.Fatalf("ping answered %#x corr %d", f.Type, f.Corr)
	}
	c.send(binproto.Frame{Type: binproto.TSnapshot, Corr: 9})
	f = c.recv()
	if f.Type != binproto.TSnapshotOK {
		t.Fatalf("snapshot frame type %#x", f.Type)
	}
	httpSnap, err := d.c.Snapshot("bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, httpSnap.Snapshot) {
		t.Fatalf("snapshot over binary (%d bytes) differs from the one over HTTP (%d bytes)", len(f.Payload), len(httpSnap.Snapshot))
	}
}

func TestBinProtocolErrors(t *testing.T) {
	_, addr := startBinDaemon(t, server.Config{})

	// First frame must be an attach.
	c := dialBin(t, addr)
	c.send(binproto.Frame{Type: binproto.TPing, Corr: 1})
	f := c.recv()
	if f.Type != binproto.TErr {
		t.Fatalf("non-attach first frame answered %#x", f.Type)
	}
	if _, err := binproto.ReadFrame(c.br); err != io.EOF {
		t.Fatalf("connection stayed open after protocol error: %v", err)
	}

	// Attaching to a missing session without a catalog is a clean error.
	c2 := dialBin(t, addr)
	c2.send(binproto.Frame{Type: binproto.TAttach, Corr: 2, Payload: binproto.AppendAttach(nil, &binproto.Attach{Name: "nope"})})
	f = c2.recv()
	if f.Type != binproto.TErr {
		t.Fatalf("missing session attach answered %#x", f.Type)
	}
	e, err := binproto.DecodeErrMsg(f.Payload)
	if err != nil || e.Status != 404 {
		t.Fatalf("missing session error: %+v (%v)", e, err)
	}

	// A standby refuses binary writes with the standby code.
	_, saddr := startBinDaemon(t, server.Config{Standby: true})
	c3 := dialBin(t, saddr)
	c3.send(binproto.Frame{Type: binproto.TAttach, Corr: 3, Payload: binproto.AppendAttach(nil, &binproto.Attach{Name: "sb", Catalog: "fig3"})})
	f = c3.recv()
	if f.Type != binproto.TErr {
		t.Fatalf("standby create attach answered %#x", f.Type)
	}
	e, err = binproto.DecodeErrMsg(f.Payload)
	if err != nil || e.Status != 503 || e.Code != wire.CodeStandby {
		t.Fatalf("standby attach error: %+v (%v)", e, err)
	}
}
