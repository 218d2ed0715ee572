// flayd is the long-running control-plane specialization daemon: it
// hosts one goflay.Pipeline per named session behind an HTTP/JSON API
// (see internal/server for the routes) and exports live engine metrics
// in Prometheus text format on /metrics.
//
// Usage:
//
//	flayd [flags]
//
//	-addr HOST:PORT      listen address (default 127.0.0.1:9444)
//	-snapshot-dir DIR    persist session snapshots here; on startup every
//	                     DIR/*.snap is warm-restarted into a live session
//	-max-batch N         cap on updates folded into one batched round:
//	                     writes queued behind the one a session's
//	                     dispatcher picks up share its specialization pass
//	-queue N             per-session bounded in-flight queue; a full queue
//	                     answers 429 (backpressure) instead of buffering
//	-audit-limit N       audit records retained per session (-1 = all)
//
// On SIGINT or SIGTERM flayd drains in-flight writes, snapshots every
// dirty session to -snapshot-dir, and exits 0 — so a restart with the
// same -snapshot-dir resumes every session warm, with audit sequence
// numbers continuing where they left off.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "flayd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored out of main so the shutdown path is
// testable in-process: it returns nil after a clean signal-triggered
// drain, and main turns that into exit status 0.
func run(ctx context.Context, args []string, logw *os.File) error {
	fs, cfg, df := flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(logw, "flayd: ", log.LstdFlags)
	cfg.Logf = logger.Printf

	srv, err := server.New(*cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", df.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	role := "active"
	if cfg.Standby {
		role = "standby"
	}
	logger.Printf("listening on http://%s as %s (snapshots: %s)", ln.Addr(), role, orNone(cfg.SnapshotDir))

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	var binLn net.Listener
	if df.binAddr != "" {
		binLn, err = net.Listen("tcp", df.binAddr)
		if err != nil {
			return err
		}
		logger.Printf("binary protocol on %s", binLn.Addr())
		go func() {
			if err := srv.ServeBin(binLn); err != nil {
				logger.Printf("binary listener: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, let in-flight HTTP requests
	// finish, then drain the sessions and snapshot the dirty ones.
	logger.Printf("signal received; draining")
	if binLn != nil {
		binLn.Close() // srv.Shutdown closes the live binary connections
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		srv.Shutdown() // still try to persist state
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := srv.Shutdown(); err != nil {
		return fmt.Errorf("session shutdown: %w", err)
	}
	logger.Printf("drained; exiting")
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
