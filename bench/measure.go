package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics. xs need not be sorted; it is
// not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the noise protocol's dispersion figure: the inter-quartile
// range of xs as a share of their median (0 when there is nothing to
// compare).
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// The reference box is a shared 2-vCPU VM whose noise is one-sided:
// identical work has a sharp floor and slows by 1.3x to 2x for stretches
// of seconds to a minute while a neighbour is busy (README,
// "Repeatability", has the measurements). A statistic pooled over a run
// therefore moves with how much of the run was disturbed. Every timing
// is instead computed per timed round, and the run reports its quietest
// round: the lowest time, the highest rate.

// quietest returns the index of the quietest round by a per-round
// statistic: the lowest value, or the highest when higher is better.
func quietest(perRound []float64, better string) int {
	b := 0
	for i, x := range perRound {
		if (better == "lower") == (x < perRound[b]) && x != perRound[b] {
			b = i
		}
	}
	return b
}

// best returns the quietest round's value of a per-round statistic.
func best(perRound []float64, better string) float64 {
	if len(perRound) == 0 {
		return 0
	}
	return perRound[quietest(perRound, better)]
}

// rescaledQuantile is how a tail quantile gets both a quiet basis and
// enough samples beyond it: every round's samples are divided by that
// round's median and multiplied by the quietest round's median, which
// takes a round's slow-down out of its samples, and the quantile is
// taken over all rescaled samples pooled.
func rescaledQuantile(rounds [][]float64, p float64) float64 {
	medians := make([]float64, len(rounds))
	n := 0
	for i, r := range rounds {
		medians[i] = median(r)
		n += len(r)
	}
	quiet := best(medians, "lower")
	pooled := make([]float64, 0, n)
	for i, r := range rounds {
		for _, x := range r {
			pooled = append(pooled, x*share(quiet, medians[i]))
		}
	}
	return quantile(pooled, p)
}

// pktWindow is how many consecutive 256-frame chunks make one packet
// sample (16 384 packets, 20 to 30 ms in process): long enough to span
// one period of pkt_churn's writer, so a sample is never all-beside or
// all-between write calls and the samples are unimodal.
const pktWindow = 64

// windowMeans turns per-chunk times into packet samples: the mean time
// per packet, in ns, of each full window of pktWindow chunks.
func windowMeans(chunks []time.Duration) []float64 {
	out := make([]float64, 0, len(chunks)/pktWindow+1)
	for lo := 0; lo+pktWindow <= len(chunks); lo += pktWindow {
		var sum time.Duration
		for _, d := range chunks[lo : lo+pktWindow] {
			sum += d
		}
		out = append(out, float64(sum)/(pktWindow*chunk))
	}
	return out
}

// flatten pools per-round samples.
func flatten(rounds [][]float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms, us and ns convert a duration to the float unit a metric reports.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts samples to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// share is a / b, or 0 when b is 0 (a layer that did no work).
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scaled multiplies a count by the scale (-seconds / 20), never below min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		return min
	}
	return v
}

// settle runs the collector twice so that what remains allocated is
// live state; it is called between rounds, outside every timed span.
func settle() {
	runtime.GC()
	runtime.GC()
}

// heapLiveMB is HeapAlloc after settle, in MB of 2^20 bytes.
func heapLiveMB() float64 {
	settle()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memCounters is the slice of runtime.MemStats the per-layer rt.*
// metrics are deltas of.
type memCounters struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC}
}

// timeLoop times n back-to-back calls of fn with one clock pair and
// returns the per-call time; it is how the harness times functions too
// short for a clock pair of their own (a Machine.Run is ~300 ns).
func timeLoop(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// medianLoop is the median per-call time over reps timeLoops.
func medianLoop(reps, n int, fn func(i int)) time.Duration {
	xs := make([]float64, reps)
	for r := range xs {
		xs[r] = float64(timeLoop(n, fn))
	}
	return time.Duration(median(xs))
}
