package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/flayerr"
	"repro/internal/fuzz"
	"repro/internal/progs"
	"repro/internal/sym"
)

func TestBVRoundTrip(t *testing.T) {
	cases := []sym.BV{
		sym.NewBV(1, 1),
		sym.NewBV(1, 0),
		sym.NewBV(7, 0x5a),
		sym.NewBV(32, 0x0a000001),
		sym.NewBV(48, 0xdeadbeef1234),
		sym.NewBV(64, ^uint64(0)),
		sym.NewBV2(65, 1, ^uint64(0)),
		sym.NewBV2(128, 0x0123456789abcdef, 0xfedcba9876543210),
		sym.AllOnes(128),
	}
	for _, v := range cases {
		w := FromBV(v)
		if want := (int(v.W) + 3) / 4; len(w.Hex) != want {
			t.Fatalf("FromBV(%v): hex %q has %d nibbles, want %d", v, w.Hex, len(w.Hex), want)
		}
		got, err := ToBV(w)
		if err != nil {
			t.Fatalf("ToBV(FromBV(%v)): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %v -> %+v -> %v", v, w, got)
		}
	}
}

func TestToBVRejectsMalformed(t *testing.T) {
	cases := []BV{
		{W: 0, Hex: ""},
		{W: 129, Hex: strings.Repeat("0", 33)},
		{W: 8, Hex: "0"},                  // too short
		{W: 8, Hex: "000"},                // too long
		{W: 8, Hex: "ZZ"},                 // bad digits
		{W: 8, Hex: "FF"},                 // uppercase rejected
		{W: 1, Hex: "2"},                  // bit above width
		{W: 7, Hex: "ff"},                 // bit above width
		{W: 65, Hex: "fffffffffffffffff"}, // hi bits above width
	}
	for _, c := range cases {
		if _, err := ToBV(c); err == nil {
			t.Errorf("ToBV(%+v) accepted malformed input", c)
		}
	}
}

// TestUpdateRoundTrip replays every update kind the fuzzer can produce
// through FromUpdate/ToUpdate and asserts the engine-side value is
// reconstructed exactly.
func TestUpdateRoundTrip(t *testing.T) {
	for _, name := range []string{"fig3", "scion", "switch"} {
		p, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Load()
		if err != nil {
			t.Fatal(err)
		}
		stream, err := fuzz.New(s.An, 11).Stream(200)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range stream {
			got, err := ToUpdate(ptr(FromUpdate(u)))
			if err != nil {
				t.Fatalf("%s update %d (%s): %v", name, i, u, err)
			}
			if !updatesEqual(u, got) {
				t.Fatalf("%s update %d: round trip diverged:\n%+v\nvs\n%+v", name, i, u, got)
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

func updatesEqual(a, b *controlplane.Update) bool {
	if a.Kind != b.Kind || a.Table != b.Table || a.ValueSet != b.ValueSet ||
		a.Register != b.Register || a.Fill != b.Fill {
		return false
	}
	if (a.Entry == nil) != (b.Entry == nil) {
		return false
	}
	if a.Entry != nil {
		x, y := a.Entry, b.Entry
		if x.Priority != y.Priority || x.Action != y.Action ||
			len(x.Matches) != len(y.Matches) || len(x.Params) != len(y.Params) {
			return false
		}
		for i := range x.Matches {
			if x.Matches[i] != y.Matches[i] {
				return false
			}
		}
		for i := range x.Params {
			if x.Params[i] != y.Params[i] {
				return false
			}
		}
	}
	if a.Default.Name != b.Default.Name || len(a.Default.Params) != len(b.Default.Params) {
		return false
	}
	for i := range a.Default.Params {
		if a.Default.Params[i] != b.Default.Params[i] {
			return false
		}
	}
	if len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

func TestToUpdateRejectsChimeras(t *testing.T) {
	bv8 := BV{W: 8, Hex: "2a"}
	entry := &TableEntry{Action: "drop"}
	cases := []Update{
		{Kind: "mystery"},
		{Kind: KindInsert},             // no table/entry
		{Kind: KindInsert, Table: "t"}, // no entry
		{Kind: KindInsert, Table: "t", Entry: entry, Register: "r"},     // chimera
		{Kind: KindInsert, Table: "t", Entry: &TableEntry{}},            // no action
		{Kind: KindSetDefault, Table: "t"},                              // no default
		{Kind: KindSetDefault, Table: "t", Default: &ActionCall{}},      // unnamed action
		{Kind: KindSetValueSet},                                         // no value set
		{Kind: KindSetValueSet, ValueSet: "v", Table: "t"},              // chimera
		{Kind: KindFillRegister, Register: "r"},                         // no fill
		{Kind: KindFillRegister, Register: "r", Fill: &bv8, Table: "t"}, // chimera
	}
	for i, c := range cases {
		if _, err := ToUpdate(&c); err == nil {
			t.Errorf("case %d (%+v): chimera accepted", i, c)
		}
	}
}

func TestToFieldMatchShapeChecks(t *testing.T) {
	v := BV{W: 8, Hex: "01"}
	bad := []FieldMatch{
		{Kind: "fancy", Value: v},
		{Kind: "exact", Value: v, PrefixLen: 3},
		{Kind: "exact", Value: v, Mask: &v},
		{Kind: "ternary", Value: v, PrefixLen: 3},
		{Kind: "lpm", Value: v, PrefixLen: 9},
		{Kind: "lpm", Value: v, PrefixLen: -1},
		{Kind: "lpm", Value: v, Mask: &v},
		{Kind: "optional", Value: v, PrefixLen: 1},
	}
	for i, m := range bad {
		if _, err := toFieldMatch(m); err == nil {
			t.Errorf("case %d (%+v): invalid match accepted", i, m)
		}
	}
	good := []FieldMatch{
		{Kind: "exact", Value: v},
		{Kind: "ternary", Value: v},
		{Kind: "ternary", Value: v, Mask: &v},
		{Kind: "lpm", Value: v, PrefixLen: 8},
		{Kind: "lpm", Value: v},
		{Kind: "optional", Value: v, Wildcard: true},
	}
	for i, m := range good {
		if _, err := toFieldMatch(m); err != nil {
			t.Errorf("case %d (%+v): valid match rejected: %v", i, m, err)
		}
	}
}

func TestDecodeStrictness(t *testing.T) {
	var req WriteRequest
	if err := DecodeBytes([]byte(`{"updates":[]}`), &req); err != nil {
		t.Fatalf("minimal body rejected: %v", err)
	}
	if err := DecodeBytes([]byte(`{"updates":[],"bogus":1}`), &req); err == nil {
		t.Fatal("unknown field accepted")
	}
	// A removed engine option is an unknown field like any other: the
	// server answers such a create request 400, it does not ignore it.
	var create CreateSessionRequest
	if err := DecodeBytes([]byte(`{"name":"s","catalog":"fig3","exec":true}`), &create); err != nil {
		t.Fatalf("create request with a live option rejected: %v", err)
	}
	for _, removed := range []string{`"no_cache":true`, `"no_dd":true`, `"workers":4`} {
		if err := DecodeBytes([]byte(`{"name":"s","catalog":"fig3",`+removed+`}`), &create); err == nil {
			t.Fatalf("create request carrying the removed option %s accepted", removed)
		}
	}
	if err := DecodeBytes([]byte(`{"updates":[]}{"updates":[]}`), &req); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing data: got %v, want ErrTrailing", err)
	}
	if err := DecodeBytes([]byte(`{"updates":`), &req); err == nil {
		t.Fatal("truncated body accepted")
	}
	big := `{"mode":"` + strings.Repeat("x", 100) + `","updates":[]}`
	if err := Decode(strings.NewReader(big), 16, &req); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized body: got %v, want ErrTooLarge", err)
	}
}

func TestCreateSessionRequestValidate(t *testing.T) {
	ok := CreateSessionRequest{Name: "s1", Catalog: "fig3"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []CreateSessionRequest{
		{},
		{Name: "s1"},
		{Name: "s1", Catalog: "fig3", Source: "x"},
		{Name: "s1", Catalog: "fig3", Snapshot: []byte{1}},
		{Name: "s1", Catalog: "fig3", Quality: "turbo"},
		{Name: "s1", Catalog: "fig3", Version: Version + 1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid request accepted", i, r)
		}
	}
	if err := (&CreateSessionRequest{Name: "s1", Catalog: "f", Version: Version + 1}).Validate(); !errors.Is(err, ErrVersion) {
		t.Error("future version must map to ErrVersion")
	}
}

func TestWriteRequestModeAndBatch(t *testing.T) {
	u := Update{Kind: KindFillRegister, Register: "r", Fill: &BV{W: 8, Hex: "01"}}
	if _, err := (&WriteRequest{Mode: "jumbo", Updates: []Update{u}}).ToUpdates(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := (&WriteRequest{}).ToUpdates(); err == nil {
		t.Fatal("empty update list accepted")
	}
	if (&WriteRequest{Updates: []Update{u}}).Batch() {
		t.Fatal("one update with default mode must be single")
	}
	if !(&WriteRequest{Updates: []Update{u, u}}).Batch() {
		t.Fatal("several updates with default mode must be batch")
	}
	if (&WriteRequest{Mode: ModeSingle, Updates: []Update{u, u}}).Batch() {
		t.Fatal("explicit single mode must stay single")
	}
}

func TestFromDecisionAndStats(t *testing.T) {
	p, err := progs.ByName("fig3")
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := fuzz.New(s.An, 3).Stream(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stream {
		d := s.Apply(u)
		w := FromDecision(d)
		if w.Kind != d.Kind.String() || w.AffectedPoints != d.AffectedPoints ||
			w.Target != u.Target() || w.ElapsedNS != d.Elapsed.Nanoseconds() {
			t.Fatalf("FromDecision mismatch: %+v vs %+v", w, d)
		}
	}
	st := s.Statistics()
	ws := FromStats(st)
	if ws.Updates != st.Updates || ws.Forwarded != st.Forwarded ||
		ws.UpdateNS != st.UpdateTime.Nanoseconds() || ws.CacheHits != st.CacheHits {
		t.Fatalf("FromStats mismatch: %+v vs %+v", ws, st)
	}
	var rejected *core.Decision
	rejected = s.Apply(&controlplane.Update{Kind: controlplane.InsertEntry, Table: "no.such.table",
		Entry: &controlplane.TableEntry{Action: "x"}})
	if w := FromDecision(rejected); w.Kind != "rejected" || w.Error == "" {
		t.Fatalf("rejected decision must carry its error: %+v", w)
	}
}

// TestErrorCodeRoundTrip pins the error classification contract: every
// flayerr sentinel round-trips through its wire code (bare and wrapped,
// so errors.Is works across the HTTP boundary), and everything outside
// the sentinel set falls back to the unclassified empty code / nil
// sentinel rather than being misclassified.
func TestErrorCodeRoundTrip(t *testing.T) {
	cases := []struct {
		code     string
		sentinel error
	}{
		{CodeUnknownTable, flayerr.ErrUnknownTable},
		{CodeClosed, flayerr.ErrClosed},
		{CodeDeadlineExceeded, flayerr.ErrDeadlineExceeded},
		{CodeSnapshotCorrupt, flayerr.ErrSnapshotCorrupt},
		{CodeBackpressure, flayerr.ErrBackpressure},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			if got := CodeOf(tc.sentinel); got != tc.code {
				t.Fatalf("CodeOf(sentinel) = %q, want %q", got, tc.code)
			}
			wrapped := fmt.Errorf("session %q: %w", "s", tc.sentinel)
			if got := CodeOf(wrapped); got != tc.code {
				t.Fatalf("CodeOf(wrapped) = %q, want %q", got, tc.code)
			}
			back := SentinelOf(tc.code)
			if back == nil || !errors.Is(back, tc.sentinel) {
				t.Fatalf("SentinelOf(%q) = %v, does not match the sentinel", tc.code, back)
			}
			// The round trip must hold both ways.
			if got := CodeOf(back); got != tc.code {
				t.Fatalf("CodeOf(SentinelOf(%q)) = %q", tc.code, got)
			}
			// No cross-talk: the code maps to exactly one sentinel.
			for _, other := range cases {
				if other.code != tc.code && errors.Is(back, other.sentinel) {
					t.Fatalf("SentinelOf(%q) also matches %q", tc.code, other.code)
				}
			}
		})
	}

	// Unknown-code and unclassified-error fallbacks.
	if got := CodeOf(nil); got != "" {
		t.Fatalf("CodeOf(nil) = %q, want empty", got)
	}
	if got := CodeOf(errors.New("some local failure")); got != "" {
		t.Fatalf("CodeOf(unclassified) = %q, want empty", got)
	}
	if got := SentinelOf("bogus_code"); got != nil {
		t.Fatalf("SentinelOf(bogus) = %v, want nil", got)
	}
	if got := SentinelOf(""); got != nil {
		t.Fatalf("SentinelOf(\"\") = %v, want nil", got)
	}
}
