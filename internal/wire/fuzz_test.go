package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dpexec"
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

// FuzzExecCodec holds the exec codec to encoding/json, its reference.
// For an arbitrary body, DecodeExecRequest accepts exactly when Decode
// + ToPackets does, with equal frames and ports, and otherwise fails
// with the same error; DecodeExecResponse yields Decode's value or
// error. For arbitrary results drawn from seed, ExecResponseEncoder and
// AppendExecRequest write json.Encoder's and json.Marshal's bytes, and
// the scanners read them back without the reference decoder.
func FuzzExecCodec(f *testing.F) {
	seeds := []string{
		"{\n  \"packets\": [{\"w\":3, \"hex\":\"08004f\", \"port\":1}]\n}",
		`{"packets":[{"w":2,"hex":"abcd","port":7},{"w":0,"hex":""},{}]}`,
		`{"version":1,"packets":[{"hex":"00","w":1}]}`,
		`{"version":2,"packets":[{"w":1,"hex":"00"}]}`,
		`{"Packets":[{"w":1,"hex":"00"}]}`,
		`{"packets":[{"w":1,"hex":0}]}`,
		"{\"packets\":[{\"w\":1,\"hex\":\"0\x000\"}]}",
		`{"packets":[{"w":1,"w":1,"hex":"00"}]}`,
		`{"packets":[{"w":1,"hex":"00","port":70000}]}`,
		`{"packets":[{"w":1.0,"hex":"00"}]}`,
		`{"packets":[{"w":-1,"hex":""}]}`,
		`{"packets":[{"w":1,"hex":"00"}]} {}`,
		`{"packets":[{"w":1,"hex":"0A"}]}`,
		`{"packets":[{"w":2,"hex":"0a"}]}`,
		`{"packets":[{"w":1,"hex":"0a"}]}`,
		`{"packets":[]}`,
		`{"packets":null}`,
		`{"results":[{"egress_port":3,"emitted":{"w":2,"hex":"dead"}},{"dropped":true,"parser_rejected":true},{}],"epoch":7}` + "\n",
		`{"results":[]}`,
		`{"results":[{"dropped":false,"mcast_grp":18446744073709551615,"emitted":{"w":1,"hex":"ZZ","port":9}}]}`,
		`{"results":[{"emitted":null}]}`,
		`{"results":[{"emitted":{"w":1,"hex":"00"},"emitted":{"w":2}}]}`,
		`{"epoch":1e2}`,
	}
	for i, s := range seeds {
		f.Add([]byte(s), int64(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		for _, limit := range []int64{0, int64(len(body)) / 2} {
			packets, ports, scanned, err := decodeExecRequest(bytes.NewReader(body), limit)
			var req ExecRequest
			wantErr := Decode(bytes.NewReader(body), limit, &req)
			var want [][]byte
			var wantPorts []uint16
			if wantErr == nil {
				want, wantPorts, wantErr = req.ToPackets()
			}
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("cap %d: DecodeExecRequest err %v (scanned %v), reference %v", limit, err, scanned, wantErr)
			}
			if err == nil && !(reflect.DeepEqual(packets, want) && reflect.DeepEqual(ports, wantPorts)) {
				t.Fatalf("cap %d: scanned %v: %x %v, reference %x %v", limit, scanned, packets, ports, want, wantPorts)
			}
		}

		resp, err := DecodeExecResponse(bytes.NewReader(body))
		var wantResp ExecResponse
		wantErr := Decode(bytes.NewReader(body), 0, &wantResp)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("DecodeExecResponse err %v, reference %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(resp, wantResp) {
			t.Fatalf("DecodeExecResponse %+v, reference %+v", resp, wantResp)
		}

		checkExecEncoders(t, rand.New(rand.NewSource(seed)), body)
	})
}

// checkExecEncoders draws a burst from r, with frames cut from data,
// and holds both encoders to encoding/json and both scanners to the
// encoders.
func checkExecEncoders(t *testing.T, r *rand.Rand, data []byte) {
	t.Helper()
	n := r.Intn(6)
	frames, ports := make([][]byte, n), make([]uint16, r.Intn(n+1))
	results := make([]dpexec.Result, n)
	wreq := ExecRequest{Packets: make([]Packet, n)}
	wresp := ExecResponse{Results: make([]ExecResult, n)}
	pick := func() uint64 { return []uint64{0, 1, 511, math.MaxUint64}[r.Intn(4)] }
	for i := range frames {
		lo := r.Intn(len(data) + 1)
		frames[i] = data[lo : lo+r.Intn(len(data)-lo+1)]
		if i < len(ports) {
			ports[i] = uint16(pick())
		}
		wreq.Packets[i] = FromPacket(frames[i], 0)
		if i < len(ports) {
			wreq.Packets[i].Port = ports[i]
		}
		results[i] = dpexec.Result{Dropped: r.Intn(3) == 0, ParserRejected: r.Intn(4) == 0,
			EgressPort: pick(), McastGrp: pick(), Emitted: frames[i]}
		if r.Intn(4) == 0 {
			results[i].Emitted = nil
		}
		wresp.Results[i] = FromExecResult(results[i])
	}
	wresp.Epoch = pick()

	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(wresp); err != nil {
		t.Fatal(err)
	}
	re := NewExecResponseEncoder(frames[:r.Intn(n+1)])
	for _, res := range results {
		re.Add(res)
	}
	got := re.Finish(wresp.Epoch)
	if !bytes.Equal(got, enc.Bytes()) {
		t.Fatalf("ExecResponseEncoder:\n%s\njson.Encoder:\n%s", got, enc.Bytes())
	}
	back, ok := scanExecResponse(got)
	if !ok || !reflect.DeepEqual(back, wresp) {
		t.Fatalf("scanExecResponse(%s) = %+v, %v", got, back, ok)
	}

	marshaled, err := json.Marshal(&wreq)
	if err != nil {
		t.Fatal(err)
	}
	got = AppendExecRequest(nil, frames, ports)
	if !bytes.Equal(got, marshaled) {
		t.Fatalf("AppendExecRequest:\n%s\njson.Marshal:\n%s", got, marshaled)
	}
	packets, gotPorts, ok := scanExecRequest(got)
	wantPorts := make([]uint16, n)
	copy(wantPorts, ports)
	if ok != (n > 0) || ok && !(reflect.DeepEqual(packets, frames) && reflect.DeepEqual(gotPorts, wantPorts)) {
		t.Fatalf("scanExecRequest(%s) = %x %v, %v", got, packets, gotPorts, ok)
	}
}
