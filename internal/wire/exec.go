package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dpexec"
	"repro/internal/flayerr"
)

// MaxPacketBytes caps one wire packet (jumbo frame headroom). The cap
// bounds the per-request work an /exec call can demand, independently
// of the body size cap.
const MaxPacketBytes = 9216

// MaxExecPackets caps the packets of one /exec request.
const MaxExecPackets = 4096

// Packet is the wire form of one data-plane packet: the byte length
// plus the bytes in lowercase hex (two nibbles per byte, most
// significant first), mirroring the {w,hex} bitvector convention with
// w counting bytes. {"w":3,"hex":"08004f"} is the frame 08 00 4f.
type Packet struct {
	W   int    `json:"w"`
	Hex string `json:"hex"`
	// Port is the ingress port (ignored on emitted packets).
	Port uint16 `json:"port,omitempty"`
}

// ExecRequest runs a burst of packets through a session's current
// specialized program (POST /v1/sessions/{name}/exec).
type ExecRequest struct {
	Version int      `json:"version,omitempty"`
	Packets []Packet `json:"packets"`
}

// ExecResult is the observable outcome of one packet.
type ExecResult struct {
	Dropped        bool   `json:"dropped,omitempty"`
	ParserRejected bool   `json:"parser_rejected,omitempty"`
	EgressPort     uint64 `json:"egress_port,omitempty"`
	McastGrp       uint64 `json:"mcast_grp,omitempty"`
	// Emitted is the deparsed output frame; omitted when dropped.
	Emitted *Packet `json:"emitted,omitempty"`
}

// ExecResponse returns one result per submitted packet, in order.
type ExecResponse struct {
	Results []ExecResult `json:"results"`
	// Epoch is the engine epoch whose image executed the burst, for
	// correlating results against stats and audit reads.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ToPacket validates a wire packet and returns its raw bytes. Every
// malformed shape yields an error satisfying
// errors.Is(err, flayerr.ErrBadPacket).
func ToPacket(p Packet) ([]byte, error) {
	bad := func(format string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("%w: %s", flayerr.ErrBadPacket, fmt.Sprintf(format, args...))
	}
	if p.W < 0 || p.W > MaxPacketBytes {
		return bad("length %d out of range [0,%d]", p.W, MaxPacketBytes)
	}
	if len(p.Hex) != 2*p.W {
		return bad("length-%d packet needs %d hex nibbles, got %d", p.W, 2*p.W, len(p.Hex))
	}
	data := make([]byte, p.W)
	for i := 0; i < len(p.Hex); i++ {
		c := p.Hex[i]
		var d byte
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		default:
			return bad("invalid hex digit %q", c)
		}
		data[i/2] = data[i/2]<<4 | d
	}
	return data, nil
}

// FromPacket converts raw bytes to the wire packet form.
func FromPacket(data []byte, port uint16) Packet {
	var b strings.Builder
	b.Grow(2 * len(data))
	for _, c := range data {
		b.WriteByte("0123456789abcdef"[c>>4])
		b.WriteByte("0123456789abcdef"[c&0xf])
	}
	return Packet{W: len(data), Hex: b.String(), Port: port}
}

// ToPackets validates an exec request into raw packet buffers plus
// their ingress ports.
func (r *ExecRequest) ToPackets() ([][]byte, []uint16, error) {
	if err := CheckVersion(r.Version); err != nil {
		return nil, nil, err
	}
	if len(r.Packets) == 0 {
		return nil, nil, fmt.Errorf("%w: exec request carries no packets", flayerr.ErrBadPacket)
	}
	if len(r.Packets) > MaxExecPackets {
		return nil, nil, fmt.Errorf("%w: %d packets over the per-request cap %d",
			flayerr.ErrBadPacket, len(r.Packets), MaxExecPackets)
	}
	packets := make([][]byte, len(r.Packets))
	ports := make([]uint16, len(r.Packets))
	for i, p := range r.Packets {
		data, err := ToPacket(p)
		if err != nil {
			return nil, nil, fmt.Errorf("packet %d: %w", i, err)
		}
		packets[i] = data
		ports[i] = p.Port
	}
	return packets, ports, nil
}

// FromExecResult converts an executor result to its wire form.
func FromExecResult(r dpexec.Result) ExecResult {
	out := ExecResult{
		Dropped:        r.Dropped,
		ParserRejected: r.ParserRejected,
		EgressPort:     r.EgressPort,
		McastGrp:       r.McastGrp,
	}
	if !r.Dropped {
		p := FromPacket(r.Emitted, 0)
		out.Emitted = &p
	}
	return out
}

// The exec codec. An /exec body is a few hundred frames in hex, and
// encoding/json spends most of a request's time on it: reflection, an
// intermediate hex string per frame and a Packet/ExecResult struct per
// frame. The functions below read and write the same bytes directly.
//
// The encoders write exactly what json.Marshal (request) and
// json.Encoder (response, trailing newline included) write for the
// same values. The decoders scan the canonical form: insignificant
// whitespace, the exact lowercase keys each once, hex strings of
// lowercase digits only, and plain non-negative integers in range.
// Every body our encoders write is canonical, and so is README's curl
// example. Any other body — case-folded keys, escapes, duplicate keys,
// 1e2, -1, 70000, null, or an invalid request — is handed whole to
// Decode (and ToPackets), the reference: the accepted set, the decoded
// values and every error are theirs by construction. FuzzExecCodec
// holds the scanners to that reference.

// DecodeExecRequest reads one exec request from r, at most max bytes
// (DefaultMaxBody when max <= 0), and returns its frames and their
// ingress ports. A scanned body's frames share one backing array.
// Errors are those of Decode (ErrTooLarge, or another decoding error)
// or of ToPackets (ErrVersion, or flayerr.ErrBadPacket).
func DecodeExecRequest(r io.Reader, max int64) (packets [][]byte, ports []uint16, err error) {
	packets, ports, _, err = decodeExecRequest(r, max)
	return packets, ports, err
}

// decodeExecRequest is DecodeExecRequest; scanned reports that the
// canonical scan decoded the body, without the reference decoder.
func decodeExecRequest(r io.Reader, max int64) (packets [][]byte, ports []uint16, scanned bool, err error) {
	body, whole := readBody(r, max)
	if whole {
		if packets, ports, ok := scanExecRequest(body); ok {
			return packets, ports, true, nil
		}
	}
	var req ExecRequest
	if err := Decode(io.MultiReader(bytes.NewReader(body), r), max, &req); err != nil {
		return nil, nil, false, err
	}
	packets, ports, err = req.ToPackets()
	return packets, ports, false, err
}

// DecodeExecResponse reads one exec response from r into the value
// Decode(r, 0, &resp) yields. Emitted frames' Hex are substrings of one
// string of the body.
func DecodeExecResponse(r io.Reader) (ExecResponse, error) {
	body, whole := readBody(r, 0)
	if whole {
		if resp, ok := scanExecResponse(body); ok {
			return resp, nil
		}
	}
	var resp ExecResponse
	err := Decode(io.MultiReader(bytes.NewReader(body), r), 0, &resp)
	return resp, err
}

// readBody reads r to its end when it holds at most limit bytes
// (DefaultMaxBody when limit <= 0). The buffer grows only as bytes
// arrive, so a declared length the sender does not back reserves
// nothing. whole is false when r holds more or a read failed; body
// then holds what was read, and Decode of io.MultiReader(body, r) sees
// the stream as if nothing had been read.
func readBody(r io.Reader, limit int64) (body []byte, whole bool) {
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	var buf bytes.Buffer
	_, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	return buf.Bytes(), err == nil && int64(buf.Len()) <= limit
}

// AppendExecRequest appends the body json.Marshal writes for an
// ExecRequest carrying FromPacket(packets[i], ports[i]) for every
// frame; ports may be shorter than packets (missing ports are 0).
func AppendExecRequest(dst []byte, packets [][]byte, ports []uint16) []byte {
	n := 16
	for _, p := range packets {
		n += 2*len(p) + 40
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, `{"packets":[`...)
	for i, p := range packets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPacket(dst, p)
		if i < len(ports) && ports[i] != 0 {
			dst = append(dst, `,"port":`...)
			dst = strconv.AppendUint(dst, uint64(ports[i]), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// ExecResponseEncoder writes an exec response result by result: the
// bytes json.NewEncoder(w).Encode writes for ExecResponse{Results:
// FromExecResult of each result added, Epoch: epoch}, with the same
// field order and omissions and the trailing newline.
type ExecResponseEncoder struct {
	buf []byte
	n   int
}

// NewExecResponseEncoder starts the response to a burst of packets,
// sized from them: a result's emitted frame is usually its packet,
// rewritten.
func NewExecResponseEncoder(packets [][]byte) *ExecResponseEncoder {
	n := 32
	for _, p := range packets {
		n += 2*len(p) + 96
	}
	return &ExecResponseEncoder{buf: append(make([]byte, 0, n), `{"results":[`...)}
}

// Add appends one result; its Emitted is not kept.
func (e *ExecResponseEncoder) Add(r dpexec.Result) {
	dst := e.buf
	if e.n > 0 {
		dst = append(dst, ',')
	}
	e.n++
	// Every present field ends in a comma; the last one is cut.
	dst = append(dst, '{')
	open := len(dst)
	if r.Dropped {
		dst = append(dst, `"dropped":true,`...)
	}
	if r.ParserRejected {
		dst = append(dst, `"parser_rejected":true,`...)
	}
	if r.EgressPort != 0 {
		dst = append(dst, `"egress_port":`...)
		dst = append(strconv.AppendUint(dst, r.EgressPort, 10), ',')
	}
	if r.McastGrp != 0 {
		dst = append(dst, `"mcast_grp":`...)
		dst = append(strconv.AppendUint(dst, r.McastGrp, 10), ',')
	}
	if !r.Dropped {
		dst = append(dst, `"emitted":`...)
		dst = append(appendPacket(dst, r.Emitted), "},"...)
	}
	if len(dst) > open {
		dst = dst[:len(dst)-1]
	}
	e.buf = append(dst, '}')
}

// Finish closes the response with epoch and returns its bytes.
func (e *ExecResponseEncoder) Finish(epoch uint64) []byte {
	dst := append(e.buf, ']')
	if epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, epoch, 10)
	}
	return append(dst, "}\n"...)
}

// appendPacket appends a packet object up to its hex field, unclosed.
func appendPacket(dst, data []byte) []byte {
	dst = append(dst, `{"w":`...)
	dst = strconv.AppendInt(dst, int64(len(data)), 10)
	dst = append(dst, `,"hex":"`...)
	return append(hex.AppendEncode(dst, data), '"')
}

// scanExecRequest decodes a canonical, valid exec request; ok is false
// for every other body.
func scanExecRequest(body []byte) (packets [][]byte, ports []uint16, ok bool) {
	s := scanner{b: body}
	// A frame byte takes two body bytes, so half the body holds them all.
	backing := make([]byte, 0, len(body)/2)
	var top fieldSet
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "version":
			v, ok := s.num(math.MaxInt)
			return top.once(0) && ok && CheckVersion(int(v)) == nil
		case "packets":
			return top.once(1) && s.array(func() bool {
				if len(packets) == MaxExecPackets {
					return false
				}
				var w, port uint64
				var seen fieldSet
				start := len(backing)
				ok := s.object(func(key []byte) bool {
					var ok bool
					switch string(key) {
					case "w":
						w, ok = s.num(MaxPacketBytes)
						return seen.once(0) && ok
					case "hex":
						backing, ok = s.hexBytes(backing)
						return seen.once(1) && ok
					case "port":
						port, ok = s.num(math.MaxUint16)
						return seen.once(2) && ok
					}
					return false
				})
				if !ok || uint64(len(backing)-start) != w {
					return false
				}
				packets = append(packets, backing[start:len(backing):len(backing)])
				ports = append(ports, uint16(port))
				return true
			})
		}
		return false
	})
	if !ok || !s.end() || len(packets) == 0 {
		return nil, nil, false
	}
	return packets, ports, true
}

// scanExecResponse decodes a canonical exec response; ok is false for
// every other body.
func scanExecResponse(body []byte) (resp ExecResponse, ok bool) {
	s := scanner{b: body}
	text := string(body)
	var emitted []Packet
	var emittedBy []int // emitted[k] belongs to resp.Results[emittedBy[k]]
	var top fieldSet
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "results":
			resp.Results = []ExecResult{}
			return top.once(0) && s.array(func() bool {
				var r ExecResult
				var seen fieldSet
				ok := s.object(func(key []byte) bool {
					var ok bool
					switch string(key) {
					case "dropped":
						r.Dropped, ok = s.boolean()
						return seen.once(0) && ok
					case "parser_rejected":
						r.ParserRejected, ok = s.boolean()
						return seen.once(1) && ok
					case "egress_port":
						r.EgressPort, ok = s.num(math.MaxUint64)
						return seen.once(2) && ok
					case "mcast_grp":
						r.McastGrp, ok = s.num(math.MaxUint64)
						return seen.once(3) && ok
					case "emitted":
						var p Packet
						var pseen fieldSet
						ok = s.object(func(key []byte) bool {
							switch string(key) {
							case "w":
								w, ok := s.num(math.MaxInt)
								p.W = int(w)
								return pseen.once(0) && ok
							case "hex":
								lo, hi, ok := s.hexStr()
								p.Hex = text[lo:hi]
								return pseen.once(1) && ok
							case "port":
								port, ok := s.num(math.MaxUint16)
								p.Port = uint16(port)
								return pseen.once(2) && ok
							}
							return false
						})
						emitted = append(emitted, p)
						emittedBy = append(emittedBy, len(resp.Results))
						return seen.once(4) && ok
					}
					return false
				})
				resp.Results = append(resp.Results, r)
				return ok
			})
		case "epoch":
			var ok bool
			resp.Epoch, ok = s.num(math.MaxUint64)
			return top.once(1) && ok
		}
		return false
	})
	if !ok || !s.end() {
		return ExecResponse{}, false
	}
	for k, i := range emittedBy {
		resp.Results[i].Emitted = &emitted[k]
	}
	return resp, true
}

// fieldSet records the keys an object has shown, to refuse duplicates.
type fieldSet uint8

func (f *fieldSet) once(bit uint) bool {
	if *f&(1<<bit) != 0 {
		return false
	}
	*f |= 1 << bit
	return true
}

// scanner walks a body in the exec codec's canonical form. Every method
// consumes its token after optional whitespace and reports false for
// anything outside the form, leaving the body to the reference decoder.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// take consumes the byte c.
func (s *scanner) take(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// object consumes an object, handing each key to member, which
// consumes the key's value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.take('{') {
		return false
	}
	if s.take('}') {
		return true
	}
	for {
		lo, hi, ok := s.str()
		if !ok || !s.take(':') || !member(s.b[lo:hi]) {
			return false
		}
		if !s.take(',') {
			return s.take('}')
		}
	}
}

// array consumes an array, calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.take('[') {
		return false
	}
	if s.take(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.take(',') {
			return s.take(']')
		}
	}
}

// str consumes a string and returns the bounds of its contents. It
// does not look inside: a key that is not one of the exact names, and
// a value that is not all hex digits, is refused by its caller.
func (s *scanner) str() (lo, hi int, ok bool) {
	if !s.take('"') {
		return 0, 0, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return 0, 0, false
	}
	lo, s.i = s.i, s.i+n+1
	return lo, lo + n, true
}

// hexStr consumes a string of lowercase hex digits and returns the
// bounds of its contents.
func (s *scanner) hexStr() (lo, hi int, ok bool) {
	lo, hi, ok = s.str()
	var bad byte
	for _, c := range s.b[lo:hi] {
		bad |= unhex[c]
	}
	return lo, hi, ok && bad <= 0xf
}

// hexBytes consumes a string of lowercase hex digit pairs and appends
// the bytes they spell to dst.
func (s *scanner) hexBytes(dst []byte) ([]byte, bool) {
	lo, hi, ok := s.str()
	if !ok || (hi-lo)%2 != 0 {
		return dst, false
	}
	n := len(dst)
	dst = slices.Grow(dst, (hi-lo)/2)[:n+(hi-lo)/2]
	src, out := s.b[lo:hi], dst[n:]
	var bad byte
	for i := range out {
		a, b := unhex[src[2*i]], unhex[src[2*i+1]]
		bad |= a | b
		out[i] = a<<4 | b
	}
	return dst, bad <= 0xf
}

// unhex maps a lowercase hex digit to its value and any other byte
// to 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

// num consumes a plain non-negative integer of at most limit.
func (s *scanner) num(limit uint64) (uint64, bool) {
	s.ws()
	start, over := s.i, false
	var v uint64
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		over = over || v > (limit-d)/10
		v = v*10 + d
	}
	n := s.i - start
	return v, n > 0 && !over && (n == 1 || s.b[start] != '0')
}

// boolean consumes true or false.
func (s *scanner) boolean() (v, ok bool) {
	s.ws()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}
