// Package sym implements the symbolic expression engine at the heart of
// goflay. It plays the role that Z3 plays in the Flay paper: terms are
// hash-consed bitvector expressions over data-plane and control-plane
// variables, aggressively simplified on construction, substituted when a
// control-plane update arrives, and queried for executability and
// constant-ness.
//
// The engine is single-sorted: booleans are bitvectors of width 1 with 1
// for true and 0 for false. Widths range from 1 to 128 bits, which covers
// every P4 header field our frontend accepts (including IPv6 addresses).
package sym

import (
	"fmt"
	"math/bits"
)

// MaxWidth is the largest supported bitvector width.
const MaxWidth = 128

// BV is a bitvector value of width W (1..128). Bits above W are always
// zero; every constructor and operation maintains that invariant. The
// value of bit i (0-indexed from the least-significant end) lives in Lo
// for i < 64 and in Hi for i >= 64.
type BV struct {
	Hi, Lo uint64
	W      uint16
}

// NewBV returns a width-w bitvector holding lo truncated to w bits.
// It panics if w is out of range; widths are validated by the type
// checker long before values are built, so a bad width is a program bug.
func NewBV(w uint16, lo uint64) BV {
	return NewBV2(w, 0, lo)
}

// NewBV2 returns a width-w bitvector from a (hi, lo) pair of 64-bit limbs,
// truncated to w bits.
func NewBV2(w uint16, hi, lo uint64) BV {
	if w < 1 || w > MaxWidth {
		panic(fmt.Sprintf("sym: invalid bitvector width %d", w))
	}
	v := BV{Hi: hi, Lo: lo, W: w}
	return v.truncate()
}

// Bool returns the canonical width-1 encoding of b.
func Bool(b bool) BV {
	if b {
		return BV{Lo: 1, W: 1}
	}
	return BV{W: 1}
}

func (v BV) truncate() BV {
	switch {
	case v.W >= 128:
		// nothing to mask
	case v.W > 64:
		v.Hi &= (1 << (v.W - 64)) - 1
	case v.W == 64:
		v.Hi = 0
	default:
		v.Hi = 0
		v.Lo &= (1 << v.W) - 1
	}
	return v
}

// IsZero reports whether every bit of v is zero.
func (v BV) IsZero() bool { return v.Hi == 0 && v.Lo == 0 }

// IsTrue reports whether v is the width-1 value 1.
func (v BV) IsTrue() bool { return v.W == 1 && v.Lo == 1 }

// IsAllOnes reports whether every one of v's W bits is set.
func (v BV) IsAllOnes() bool { return v == AllOnes(v.W) }

// AllOnes returns the width-w bitvector with every bit set.
func AllOnes(w uint16) BV {
	return NewBV2(w, ^uint64(0), ^uint64(0))
}

// Uint64 returns the low 64 bits of v. For widths <= 64 this is the
// entire value.
func (v BV) Uint64() uint64 { return v.Lo }

// Eq reports value equality (width and bits).
func (v BV) Eq(o BV) bool { return v == o }

// And returns the bitwise AND of v and o. Widths must match.
func (v BV) And(o BV) BV { v.mustMatch(o); return BV{v.Hi & o.Hi, v.Lo & o.Lo, v.W} }

// Or returns the bitwise OR of v and o. Widths must match.
func (v BV) Or(o BV) BV { v.mustMatch(o); return BV{v.Hi | o.Hi, v.Lo | o.Lo, v.W} }

// Xor returns the bitwise XOR of v and o. Widths must match.
func (v BV) Xor(o BV) BV { v.mustMatch(o); return BV{v.Hi ^ o.Hi, v.Lo ^ o.Lo, v.W} }

// Not returns the bitwise complement of v within its width.
func (v BV) Not() BV { return BV{^v.Hi, ^v.Lo, v.W}.truncate() }

// Add returns v + o modulo 2^W. Widths must match.
func (v BV) Add(o BV) BV {
	v.mustMatch(o)
	lo, carry := bits.Add64(v.Lo, o.Lo, 0)
	hi, _ := bits.Add64(v.Hi, o.Hi, carry)
	return BV{hi, lo, v.W}.truncate()
}

// Sub returns v - o modulo 2^W. Widths must match.
func (v BV) Sub(o BV) BV {
	v.mustMatch(o)
	lo, borrow := bits.Sub64(v.Lo, o.Lo, 0)
	hi, _ := bits.Sub64(v.Hi, o.Hi, borrow)
	return BV{hi, lo, v.W}.truncate()
}

// Shl returns v << n within the width; shifts of W or more yield zero.
func (v BV) Shl(n uint) BV {
	if n >= uint(v.W) {
		return BV{W: v.W}
	}
	switch {
	case n == 0:
		return v
	case n >= 64:
		return BV{Hi: v.Lo << (n - 64), W: v.W}.truncate()
	default:
		return BV{Hi: v.Hi<<n | v.Lo>>(64-n), Lo: v.Lo << n, W: v.W}.truncate()
	}
}

// Lshr returns the logical right shift v >> n; shifts of W or more yield
// zero.
func (v BV) Lshr(n uint) BV {
	if n >= uint(v.W) {
		return BV{W: v.W}
	}
	switch {
	case n == 0:
		return v
	case n >= 64:
		return BV{Lo: v.Hi >> (n - 64), W: v.W}
	default:
		return BV{Hi: v.Hi >> n, Lo: v.Lo>>n | v.Hi<<(64-n), W: v.W}
	}
}

// Ult reports whether v < o as unsigned integers. Widths must match.
func (v BV) Ult(o BV) bool {
	v.mustMatch(o)
	if v.Hi != o.Hi {
		return v.Hi < o.Hi
	}
	return v.Lo < o.Lo
}

// Concat returns the bitvector v ++ o, with v occupying the
// most-significant bits, mirroring P4's ++ operator.
func (v BV) Concat(o BV) BV {
	w := v.W + o.W
	if w > MaxWidth {
		panic(fmt.Sprintf("sym: concat width %d exceeds %d", w, MaxWidth))
	}
	return v.zext(w).Shl(uint(o.W)).Or(o.zext(w))
}

func (v BV) zext(w uint16) BV {
	if w < v.W {
		panic("sym: zext to narrower width")
	}
	return BV{v.Hi, v.Lo, w}
}

// Extract returns bits hi..lo of v (inclusive, hi >= lo) as a bitvector
// of width hi-lo+1, mirroring P4's slice operator v[hi:lo].
func (v BV) Extract(hi, lo uint16) BV {
	if hi < lo || hi >= v.W {
		panic(fmt.Sprintf("sym: extract [%d:%d] out of range for width %d", hi, lo, v.W))
	}
	shifted := v.Lshr(uint(lo))
	return BV{shifted.Hi, shifted.Lo, hi - lo + 1}.truncate()
}

// ZeroExtend returns v widened to w bits with zero fill.
func (v BV) ZeroExtend(w uint16) BV {
	if w > MaxWidth {
		panic("sym: zero-extend beyond max width")
	}
	return v.zext(w)
}

// Bit reports bit i of v.
func (v BV) Bit(i uint16) bool {
	if i >= v.W {
		return false
	}
	if i >= 64 {
		return v.Hi>>(i-64)&1 == 1
	}
	return v.Lo>>i&1 == 1
}

// PopCount returns the number of set bits.
func (v BV) PopCount() int {
	return bits.OnesCount64(v.Hi) + bits.OnesCount64(v.Lo)
}

func (v BV) mustMatch(o BV) {
	if v.W != o.W {
		panic(fmt.Sprintf("sym: width mismatch %d vs %d", v.W, o.W))
	}
}

// String renders the value as width'wHEX, e.g. 16w0x800, matching P4's
// literal syntax.
func (v BV) String() string {
	if v.Hi != 0 {
		return fmt.Sprintf("%dw0x%x%016x", v.W, v.Hi, v.Lo)
	}
	return fmt.Sprintf("%dw0x%x", v.W, v.Lo)
}

// Mix64 is a splitmix64-style avalanche: every input bit influences
// every output bit. The control plane's tuple-space buckets hash BV
// words with it.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
