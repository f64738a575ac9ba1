package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func exactQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return float64(sorted[rank-1])
}

func TestHistQuantilesMatchSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1 << 20) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 8)) },
		"bimodal": func() int64 {
			if rng.Intn(100) == 0 {
				return 2_000_000 + rng.Int63n(100_000)
			}
			return 300 + rng.Int63n(700)
		},
		"small": func() int64 { return rng.Int63n(200) },
	}
	for name, gen := range gens {
		var h hist
		samples := make([]int64, 100_000)
		for i := range samples {
			samples[i] = gen()
			h.record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := exactQuantile(samples, q)
			got := h.quantile(q)
			if want == 0 {
				if got != 0 {
					t.Errorf("%s q=%v: got %v, want 0", name, q, got)
				}
				continue
			}
			if rel := math.Abs(got-want) / want; rel > 0.03 {
				t.Errorf("%s q=%v: got %v, want %v (error %.2f%% > 3%%)", name, q, got, want, 100*rel)
			}
		}
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		i := bucketOf(v)
		if i < 0 || i >= numBuckets || i < prev {
			t.Fatalf("bucketOf(%d) = %d out of order or range", v, i)
		}
		prev = i
		if mid := bucketMid(i); v > 0 && math.Abs(mid-float64(v))/float64(v) > 1.0/subCount {
			t.Fatalf("bucket %d midpoint %v too far from %d", i, mid, v)
		}
	}
}

func TestHistAddMergesCounts(t *testing.T) {
	var a, b hist
	for i := int64(1); i <= 1000; i++ {
		a.record(i)
		b.record(i + 1000)
	}
	a.add(&b)
	if a.n != 2000 || a.max != 2000 {
		t.Fatalf("merged n=%d max=%d, want 2000 2000", a.n, a.max)
	}
	if got := a.quantile(0.5); math.Abs(got-1000)/1000 > 0.03 {
		t.Fatalf("merged median %v, want ~1000", got)
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := new(hist)
	ns := int64(12345)
	if a := testing.AllocsPerRun(1000, func() { h.record(ns); ns += 7 }); a != 0 {
		t.Fatalf("record allocates %v times per call", a)
	}
}
