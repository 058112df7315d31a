package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear, 16 linear sub-buckets per
// power-of-two octave.
//
// Values below 16 get one exact bucket each (indices 0..15). A value
// v >= 16 with highest set bit o (octave, bits.Len64(v)-1 >= 4) lands in
//
//	idx = 16 + (o-4)*16 + ((v >> (o-4)) - 16)
//
// i.e. the top four mantissa bits after the leading one select one of 16
// sub-buckets inside the octave. Bucket width is 2^(o-4), so the upper
// bound of a bucket over-reports a contained value by at most 1/16 ≈ 6.25%
// — the relative error bound on every quantile estimate.
//
// Octaves are capped at histMaxOctave: with nanosecond observations the
// last finite bucket ends at 2^43-1 ns ≈ 2.4 hours, beyond any latency
// this stack can produce; larger values clamp into the final bucket.
const (
	histSubBits   = 4                // mantissa bits per octave
	histSubCount  = 1 << histSubBits // 16 sub-buckets
	histMaxOctave = 42               // top octave tracked exactly
	histNumBucket = histSubCount + (histMaxOctave-histSubBits+1)*histSubCount
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	o := bits.Len64(v) - 1
	if o > histMaxOctave {
		return histNumBucket - 1
	}
	sub := (v >> (o - histSubBits)) - histSubCount
	return histSubCount + (o-histSubBits)*histSubCount + int(sub)
}

// bucketUpper returns the largest value mapping to bucket idx (the value a
// quantile falling in this bucket reports).
func bucketUpper(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	o := histSubBits + (idx-histSubCount)/histSubCount
	sub := (idx - histSubCount) % histSubCount
	return (uint64(histSubCount+sub+1) << (o - histSubBits)) - 1
}

// Histogram is a lock-free log-bucketed histogram. Concurrent Observe and
// Snapshot are safe; a snapshot taken during concurrent writes is a
// consistent-enough view for monitoring (bucket sums may trail count by
// in-flight observations, never by more).
//
// The buckets come in blocks of one octave's histSubCount, each allocated
// by the first observation that lands in it, behind a table of blocks
// allocated by the first observation at all: a histogram nothing records
// into (a route no client calls, a layer a deployment does not run) holds
// no buckets, and one whose values span a few octaves holds only those.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
	blocks atomic.Pointer[[histNumBlock]atomic.Pointer[histBlock]]
}

// histBlock is one octave's buckets; block 0 holds the exact values below
// histSubCount.
type histBlock [histSubCount]atomic.Uint64

const histNumBlock = histNumBucket / histSubCount

// bucket returns bucket i, allocating its block (and the table) on first
// use.
func (h *Histogram) bucket(i int) *atomic.Uint64 {
	t := h.blocks.Load()
	if t == nil {
		h.blocks.CompareAndSwap(nil, new([histNumBlock]atomic.Pointer[histBlock]))
		t = h.blocks.Load()
	}
	p := &t[i/histSubCount]
	b := p.Load()
	if b == nil {
		p.CompareAndSwap(nil, new(histBlock))
		b = p.Load()
	}
	return &b[i%histSubCount]
}

// ObserveValue records one raw observation.
func (h *Histogram) ObserveValue(v uint64) {
	if !enabled.Load() {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.bucket(bucketIndex(v)).Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records a duration in nanoseconds (negative durations clamp to
// zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveValue(uint64(d))
}

// ObserveSince records the elapsed time since start. A zero start — what
// Now returns while recording is disabled — is ignored, making
// "start := obs.Now(); defer h.ObserveSince(start)" free when disabled.
func (h *Histogram) ObserveSince(start time.Time) {
	if start.IsZero() {
		return
	}
	h.Observe(time.Since(start))
}

// HistSnapshot is a point-in-time copy of a histogram, mergeable and
// subtractable so callers can aggregate across shards or extract quantiles
// for a bounded window (end.Sub(begin)).
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [histNumBucket]uint64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if t := h.blocks.Load(); t != nil {
		for k := range t {
			if b := t[k].Load(); b != nil {
				for j := range b {
					s.Buckets[k*histSubCount+j] = b[j].Load()
				}
			}
		}
	}
	return s
}

// Merge adds other's observations into s (aggregation across instances).
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Sub returns the delta s − prev: the observations recorded between the
// two snapshots. Max cannot be windowed (it is a running maximum), so the
// delta conservatively keeps s.Max.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := s
	d.Count -= prev.Count
	d.Sum -= prev.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= prev.Buckets[i]
	}
	return d
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// recorded values: the upper edge of the bucket holding the rank-⌈q·count⌉
// observation, capped at the observed maximum. Relative over-estimation is
// at most 1/16. Returns 0 when the snapshot is empty.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			u := bucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the recorded values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
