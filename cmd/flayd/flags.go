package main

import (
	"flag"
	"time"

	"repro/internal/server"
)

// daemonFlags holds the listener-level options that are not part of
// server.Config.
type daemonFlags struct {
	addr    string
	binAddr string
}

// flags builds the daemon's flag set bound to a server.Config, kept
// separate from run so tests can exercise parsing without a listener.
func flags() (*flag.FlagSet, *server.Config, *daemonFlags) {
	fs := flag.NewFlagSet("flayd", flag.ContinueOnError)
	cfg := &server.Config{}
	df := &daemonFlags{}
	fs.StringVar(&df.addr, "addr", "127.0.0.1:9444", "listen address")
	fs.StringVar(&df.binAddr, "bin-addr", "", "binary-protocol listen address (empty disables the binary listener)")
	fs.StringVar(&cfg.SnapshotDir, "snapshot-dir", "", "persist and restore session snapshots in this directory")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 0, "max queued updates folded into one batched round (0 = default)")
	fs.IntVar(&cfg.QueueDepth, "queue", 0, "per-session in-flight write queue depth (0 = default)")
	fs.IntVar(&cfg.AuditLimit, "audit-limit", 0, "audit records retained per session (0 = default, -1 = all)")
	fs.DurationVar(&cfg.PressureDeadline, "pressure-deadline", 50*time.Millisecond,
		"latency budget attached to writes once a session queue is half full, degrading precision before 429s (0 disables)")
	fs.BoolVar(&cfg.Standby, "standby", false,
		"start as a hot standby: refuse client writes, accept replica streams, await promotion")
	fs.StringVar(&cfg.ReplicateTo, "replicate-to", "",
		"standby base URL to ship snapshots and write rounds to (empty disables replication)")
	return fs, cfg, df
}
