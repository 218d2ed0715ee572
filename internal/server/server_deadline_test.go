// End-to-end test of the deadline path through the daemon: a write
// carrying deadline_ms must reach the engine as a context deadline,
// degrade the table when the precise cost no longer fits, surface the
// degradation on the wire decisions, in /stats, in the audit trail and
// in the metrics snapshot — and stay sound.
package server_test

import (
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/progs"
	"repro/internal/server"
	"repro/internal/wire"
)

func TestDeadlineDegradesOverTheWire(t *testing.T) {
	d := startDaemon(t, server.Config{})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{
		Name:    "ddl",
		Catalog: "middleblock",
		// Never overapproximate statically: precise cost grows with the
		// installed ACL, which is what the deadline defends against.
		OverapproxThreshold: -1,
	}); err != nil {
		t.Fatal(err)
	}

	// Train the engine's cost estimator with deadline-free precise
	// writes, growing the ACL until one precise write costs several
	// times the budget. A precise write costs the rank of the entry it
	// touches — the links of the table's ite chain above it are rebuilt
	// — so a write above every installed entry never outgrows any
	// budget; what the controller defends against is the write deep in a
	// long chain. Entry i has priority 10+i: the ids count down, so
	// every write lands under everything installed. How many entries it
	// takes depends on how fast a link rebuilds on this machine, so the
	// table is sized from the elapsed_ns the training decisions report,
	// not from a constant: grown a batch at a time, then probed with two
	// single writes, until both cost at least 4x the budget.
	const (
		budget  = 2 * time.Millisecond
		growBy  = 256
		maxSize = 1 << 16
	)
	next := maxSize
	train := func(mode string, n int) []wire.Decision {
		t.Helper()
		ups := make([]*controlplane.Update, n)
		for i := range ups {
			next--
			ups[i] = progs.MiddleblockACLEntry(next)
		}
		resp, err := d.c.Write("ddl", mode, ups)
		if err != nil {
			t.Fatal(err)
		}
		for i, dec := range resp.Decisions {
			if dec.Kind == "rejected" {
				t.Fatalf("training update %d rejected: %s", next+n-1-i, dec.Error)
			}
			if dec.Precision != "" {
				t.Fatalf("training update %d already degraded", next+n-1-i)
			}
		}
		return resp.Decisions
	}
	for cost := time.Duration(0); cost < 4*budget; {
		if next < growBy+3 {
			t.Fatalf("a rank-deep precise write still costs %v at %d ACL entries; cannot outgrow a %v budget", cost, maxSize-next, budget)
		}
		train(wire.ModeBatch, growBy)
		probes := train(wire.ModeSingle, 2)
		cost = time.Duration(min(probes[0].ElapsedNS, probes[1].ElapsedNS))
	}
	t.Logf("trained on %d ACL entries", maxSize-next)

	// One write under the budget: the engine must degrade rather than
	// run the precise pass, and say so on the wire.
	resp, err := d.c.WriteDeadline("ddl", wire.ModeSingle,
		[]*controlplane.Update{progs.MiddleblockACLEntry(next - 1)}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Decisions) != 1 || resp.Decisions[0].Kind == "rejected" {
		t.Fatalf("deadline write decisions = %+v", resp.Decisions)
	}
	if resp.Decisions[0].Precision != "degraded" {
		t.Fatalf("deadline decision precision = %q, want degraded", resp.Decisions[0].Precision)
	}

	// The degradation must be visible on every observability surface.
	// The session's background repair loop may already have promoted the
	// table back (that is its job), so assert on the cumulative
	// counters, not the live degraded set.
	st, err := d.c.Stats("ddl")
	if err != nil {
		t.Fatal(err)
	}
	if st.Degradations < 1 {
		t.Fatalf("stats degradations = %d, want >= 1", st.Degradations)
	}
	if st.UnsoundDegraded != 0 {
		t.Fatalf("unsound degraded verdicts = %d, want 0", st.UnsoundDegraded)
	}
	snap, err := d.c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["core.degradations"]; got < 1 {
		t.Fatalf("core.degradations metric = %d, want >= 1", got)
	}
	audit, err := d.c.Audit("ddl", 0)
	if err != nil {
		t.Fatal(err)
	}
	degrades := 0
	for _, rec := range audit.Records {
		if rec.Decision == "degrade" {
			degrades++
		}
	}
	if degrades < 1 {
		t.Fatalf("audit trail has no degrade records among %d", len(audit.Records))
	}

	// Quiescence: the default repair loop should promote the table back
	// to precise (and verify soundness) without any operator action.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err = d.c.Stats("ddl")
		if err != nil {
			t.Fatal(err)
		}
		if st.DegradedTables == 0 && st.Promotions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair loop never promoted over the wire: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.UnsoundDegraded != 0 {
		t.Fatalf("unsound degraded verdicts after promotion = %d, want 0", st.UnsoundDegraded)
	}
}
