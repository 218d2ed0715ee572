package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fuzz"
	"repro/internal/progs"
	"repro/internal/wire"
)

// freePort grabs an ephemeral port for a daemon under test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunGracefulShutdown drives the exact path a SIGTERM takes:
// signal.NotifyContext cancels run's context, the daemon drains, the
// dirty session is snapshotted, and run returns nil (exit 0). A second
// run over the same snapshot dir must warm-restart the session.
func TestRunGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	addr := freePort(t)

	boot := func(ctx context.Context) chan error {
		errc := make(chan error, 1)
		go func() {
			errc <- run(ctx, []string{"-addr", addr, "-snapshot-dir", dir}, os.Stderr)
		}()
		return errc
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := boot(ctx)
	c := client.New("http://" + addr)
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(wire.CreateSessionRequest{Name: "s", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	// Dirty the session so shutdown has something to persist: one
	// accepted update (a rejected one would not move the generation).
	p, err := progs.ByName("fig3")
	if err != nil {
		t.Fatal(err)
	}
	local, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := fuzz.New(local.An, 1).Stream(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("s", wire.ModeSingle, stream); err != nil {
		t.Fatal(err)
	}

	cancel() // what SIGTERM does via signal.NotifyContext
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after graceful signal: %v (want nil, i.e. exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of the signal")
	}
	if _, err := os.Stat(filepath.Join(dir, "s.snap")); err != nil {
		t.Fatalf("shutdown did not snapshot the session: %v", err)
	}

	// Warm restart: same snapshot dir, fresh daemon, session is back.
	ctx2, cancel2 := context.WithCancel(context.Background())
	errc2 := boot(ctx2)
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	info, err := c.Session("s")
	if err != nil {
		t.Fatalf("session gone after warm restart: %v", err)
	}
	if !info.Restored || info.Stats.Updates != 1 {
		t.Fatalf("restored session state wrong: %+v", info)
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRunFlagErrors: bad flags and an unusable listen address fail
// fast with an error rather than hanging.
func TestRunFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, os.Stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, os.Stderr); err == nil {
		t.Fatal("bogus listen address accepted")
	}
}
