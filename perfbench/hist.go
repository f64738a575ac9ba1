package main

import "math/bits"

// Latency recorder: a log-linear (HdrHistogram-style) histogram of
// nanosecond durations. Values below 2·subCount are counted exactly; above
// that every power-of-two range [2^e, 2^(e+1)) is split into subCount
// equal-width buckets, so a bucket is never wider than 1/subCount of its
// lower bound. Reporting a bucket's midpoint bounds the relative error of
// any quantile by 1/(2·subCount) ≈ 0.8%. Recording is an index computation
// and an increment into a fixed array: it never allocates.
//
// The obs package's log₂ histogram can only report 2^k−1, so no benchmark
// number is read from it.

const (
	subBits  = 6
	subCount = 1 << subBits
	// numBuckets covers every uint64: the exact range [0, 2·subCount) plus
	// subCount buckets for each shift 1..63−subBits.
	numBuckets = (65 - subBits) * subCount
)

// hist is a latency recorder owned by one goroutine; merge the per-client
// recorders after the window with add.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

func bucketOf(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 2*subCount {
		return float64(i)
	}
	shift := i/subCount - 1
	lo := uint64(i%subCount+subCount) << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) record(ns int64) {
	v := uint64(max(ns, 0))
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	h.max = max(h.max, v)
}

func (h *hist) add(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// quantile returns the value at rank ceil(q·n) (1-based), the same sample
// sorted[ceil(q·n)−1] picks, up to the bucket error. It returns 0 for an
// empty recorder.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return min(bucketMid(i), float64(h.max))
		}
	}
	return float64(h.max)
}
