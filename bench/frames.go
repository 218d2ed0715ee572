package main

import (
	"math/rand"

	"repro/internal/controlplane"
)

// Frame classes. The traffic mix is fixed: of every ten frames seven
// hit an installed entry of the workload's hit table, two miss it and
// one is truncated inside the IPv4 header (the parser rejects it).
// Frames are minFrame bytes, every tenth padded to bigFrame.
const (
	classHit = iota
	classMiss
	classTruncated
)

const (
	bigFrame  = 1500
	frameSets = 20 // chunks in a frame set; the packet loops cycle through them
	chunk     = 256
)

// keyAt places one match key of the hit table in a frame: n bytes at
// byte offset off, or the ingress port when port is set.
type keyAt struct {
	off, n int
	port   bool
}

// layout says how a program's frames are built from the match keys of
// the entries installed in its hit table.
type layout struct {
	// table is the table whose installed entries make a frame a hit.
	table string
	keys  []keyAt
	// template is the smallest well-formed frame the program's parser
	// consumes to the end.
	template []byte
}

// ipv4UDP is a 64-byte ethernet/IPv4/UDP frame: 14 + 20 + 8 header
// bytes and 22 of payload.
func ipv4UDP(dport uint16, size int) []byte {
	f := make([]byte, size)
	copy(f[0:], []byte{0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x08, 0x00})
	f[14] = 0x45 // v4, IHL 5
	f[16], f[17] = byte((size-14)>>8), byte(size-14)
	f[22] = 64 // ttl
	f[23] = 17 // udp
	copy(f[26:], []byte{10, 0, 0, 1, 10, 0, 0, 2})
	f[34], f[35] = 0x04, 0x00 // sport 1024
	f[36], f[37] = byte(dport>>8), byte(dport)
	f[38], f[39] = byte((size-34)>>8), byte(size-34)
	return f
}

// layouts holds one frame layout per catalog program the workloads run.
var layouts = map[string]layout{
	// Forward NAT sessions match ipv4.src and l4.sport exactly.
	"nat44": {
		table:    "Ingress.nat_session_fwd",
		keys:     []keyAt{{off: 26, n: 4}, {off: 34, n: 2}},
		template: ipv4UDP(53, 64),
	},
	// The Pre-Ingress ACL matches src, dst, protocol, sport, dport.
	"middleblock": {
		table:    "Ingress.acl_pre_ingress",
		keys:     []keyAt{{off: 26, n: 4}, {off: 30, n: 4}, {off: 23, n: 1}, {off: 34, n: 2}, {off: 36, n: 2}},
		template: ipv4UDP(53, 64),
	},
	// SCION's first table matches the ingress port; the frame carries
	// the full SCION stack (UDP port 50000, common + address + path
	// meta + one hop field = 86 bytes) so the whole chain runs.
	"scion": {
		table:    "Ingress.ingress_iface",
		keys:     []keyAt{{port: true}},
		template: ipv4UDP(50000, 96),
	},
}

// frameSet is the deterministic traffic of one run.
type frameSet struct {
	frames [][]byte
	ports  []uint16
	class  []uint8
}

// chunkAt returns the i-th 256-frame chunk, cycling.
func (fs *frameSet) chunkAt(i int) ([][]byte, []uint16) {
	n := len(fs.frames) / chunk
	lo := (i % n) * chunk
	return fs.frames[lo : lo+chunk], fs.ports[lo : lo+chunk]
}

// sample returns every step-th frame (the differential gate's 512).
func (fs *frameSet) sample(n int) ([][]byte, []uint16) {
	step := len(fs.frames) / n
	if step < 1 {
		step = 1
	}
	var frames [][]byte
	var ports []uint16
	for i := 0; i < len(fs.frames) && len(frames) < n; i += step {
		frames = append(frames, fs.frames[i])
		ports = append(ports, fs.ports[i])
	}
	return frames, ports
}

// put writes the low n bytes of v big-endian at f[off:].
func put(f []byte, off, n int, v uint64) {
	for i := n - 1; i >= 0; i-- {
		f[off+i] = byte(v)
		v >>= 8
	}
}

func get(f []byte, off, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(f[off+i])
	}
	return v
}

// keyOf reads the frame field (or port) a key position names.
func (l *layout) keyOf(f []byte, port uint16, k keyAt) (uint64, bool) {
	if k.port {
		return uint64(port), true
	}
	if len(f) < k.off+k.n {
		return 0, false
	}
	return get(f, k.off, k.n), true
}

// matches is the harness's own oracle for "this frame hits that entry",
// independent of how the frame was built.
func (l *layout) matches(f []byte, port uint16, e *controlplane.TableEntry) bool {
	for i, k := range l.keys {
		v, ok := l.keyOf(f, port, k)
		if !ok {
			return false
		}
		m := e.Matches[i]
		w := uint(m.Value.W)
		mask := ^uint64(0) >> (64 - w)
		switch m.Kind {
		case controlplane.MatchTernary:
			mask = m.Mask.Uint64()
		case controlplane.MatchLPM:
			mask = mask &^ (mask >> uint(m.PrefixLen))
		}
		if (v^m.Value.Uint64())&mask != 0 {
			return false
		}
	}
	return true
}

// hitsAny reports whether the frame matches any of the entries.
func (l *layout) hitsAny(f []byte, port uint16, entries []*controlplane.TableEntry) bool {
	for _, e := range entries {
		if l.matches(f, port, e) {
			return true
		}
	}
	return false
}

// buildFrames derives the run's traffic from the match keys of the
// entries installed in the layout's hit table: per block of ten frames,
// seven copy a random installed entry's keys into the template (hit),
// two carry random keys that match no entry (miss) and one is a hit
// frame cut inside the IPv4 header (truncated), in shuffled order.
func buildFrames(l *layout, entries []*controlplane.TableEntry, seed uint64) *frameSet {
	r := rand.New(rand.NewSource(int64(seed)))
	n := frameSets * chunk
	fs := &frameSet{frames: make([][]byte, n), ports: make([]uint16, n), class: make([]uint8, n)}
	block := []uint8{classHit, classHit, classHit, classHit, classHit, classHit, classHit, classMiss, classMiss, classTruncated}
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[i%10]
		size := len(l.template)
		if i%10 == 9 {
			size = bigFrame
		}
		f := make([]byte, size)
		copy(f, l.template)
		put(f, 16, 2, uint64(size-14)) // ipv4.total_len
		for j := len(l.template); j < size; j++ {
			f[j] = byte(r.Intn(256))
		}
		port := uint16(r.Intn(8) + 400) // no program installs a port this high
		fill := func(e *controlplane.TableEntry) {
			for k, at := range l.keys {
				v := e.Matches[k].Value.Uint64()
				if at.port {
					port = uint16(v)
				} else {
					put(f, at.off, at.n, v)
				}
			}
		}
		switch class {
		case classHit, classTruncated:
			fill(entries[r.Intn(len(entries))])
			if class == classTruncated {
				f = f[:14+1+r.Intn(19)]
			}
		case classMiss:
			for {
				for _, at := range l.keys {
					if !at.port {
						put(f, at.off, at.n, r.Uint64())
					}
				}
				if !l.hitsAny(f, port, entries) {
					break
				}
			}
		}
		fs.frames[i], fs.ports[i], fs.class[i] = f, port, class
	}
	return fs
}

// fastpathShare is the share of the frame set that the oracle says
// matches an installed entry once parsed: hit frames, and none of the
// misses or truncated frames.
func (fs *frameSet) fastpathShare(l *layout, entries []*controlplane.TableEntry) float64 {
	hits := 0
	for i, f := range fs.frames {
		if fs.class[i] != classTruncated && l.hitsAny(f, fs.ports[i], entries) {
			hits++
		}
	}
	return float64(hits) / float64(len(fs.frames))
}
