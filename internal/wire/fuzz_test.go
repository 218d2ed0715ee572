package wire

import (
	"testing"
)

// FuzzWireDecode holds the strict decoder to its contract: arbitrary
// bytes — malformed, truncated, oversized, unicode-mangled — either
// decode into a request that survives conversion to engine vocabulary,
// or return an error. Nothing panics, and nothing out of range (widths,
// prefix lengths, hex digits) reaches the engine types, whose
// constructors would panic on it.
func FuzzWireDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"updates":[]}`,
		`{"version":1,"mode":"batch","updates":[{"kind":"insert","table":"t","entry":{"matches":[{"kind":"exact","value":{"w":32,"hex":"0a000001"}}],"action":"fwd","params":[{"w":9,"hex":"1ff"}]}}]}`,
		`{"updates":[{"kind":"insert","table":"t","entry":{"matches":[{"kind":"lpm","value":{"w":32,"hex":"0a000000"},"prefix_len":8}],"action":"fwd"}}]}`,
		`{"updates":[{"kind":"insert","table":"t","entry":{"matches":[{"kind":"ternary","value":{"w":16,"hex":"00ff"},"mask":{"w":16,"hex":"ffff"}}],"action":"fwd","params":[]}}]}`,
		`{"updates":[{"kind":"set-default","table":"t","default":{"name":"drop"}}]}`,
		`{"updates":[{"kind":"set-value-set","value_set":"vs","members":[{"value":{"w":8,"hex":"2a"}}]}]}`,
		`{"updates":[{"kind":"fill-register","register":"r","fill":{"w":128,"hex":"ffffffffffffffffffffffffffffffff"}}]}`,
		`{"updates":[{"kind":"fill-register","register":"r","fill":{"w":1,"hex":"3"}}]}`,
		`{"updates":[{"kind":"insert","table":"t","entry":{"matches":[{"kind":"exact","value":{"w":999,"hex":"00"}}],"action":"a"}}]}`,
		`{"name":"s","catalog":"fig3"}`,
		`{"name":"s","source":"parser p(){}","overapprox_threshold":-3,"quality":"dce-only"}`,
		`{"name":"s","snapshot":"AAECAw=="}`,
		`{"updates":[{"kind":"insert"`,
		`[1,2,3]`,
		`"just a string"`,
		`{"updates":[{"kind":"insert","table":"t","entry":{"action":"a"}}]} trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A write request: decode strictly, then force every decoded
		// update through the engine-vocabulary conversion.
		var wr WriteRequest
		if err := DecodeBytes(data, &wr); err == nil {
			if us, err := wr.ToUpdates(); err == nil {
				// Converted updates must round-trip losslessly.
				for i, u := range us {
					back, err := ToUpdate(ptr(FromUpdate(u)))
					if err != nil {
						t.Fatalf("re-encode of accepted update %d failed: %v", i, err)
					}
					if !updatesEqual(u, back) {
						t.Fatalf("accepted update %d does not round-trip: %+v vs %+v", i, u, back)
					}
				}
			}
		}
		// A create request: decode plus shape validation.
		var cr CreateSessionRequest
		if err := DecodeBytes(data, &cr); err == nil {
			_ = cr.Validate()
		}
		// A raw BV on its own.
		var bv BV
		if err := DecodeBytes(data, &bv); err == nil {
			if v, err := ToBV(bv); err == nil {
				if got, err := ToBV(FromBV(v)); err != nil || got != v {
					t.Fatalf("accepted BV does not round-trip: %+v -> %v (%v)", bv, got, err)
				}
			}
		}
	})
}
