package sftree

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/stm"
)

// buildPairs returns n pairs with strictly increasing, gapped keys.
func buildPairs(n int) []arena.KV {
	pairs := make([]arena.KV, n)
	for i := range pairs {
		pairs[i] = arena.KV{K: uint64(3*i + 1), V: uint64(i)}
	}
	return pairs
}

// checkExactHeights asserts that every node's maintenance-local height
// estimates equal the actual subtree heights, returning the height.
func checkExactHeights(t *testing.T, tr *Tree, ref arena.Ref) int32 {
	t.Helper()
	if ref == arena.Nil {
		return 0
	}
	n := tr.node(ref)
	lh := checkExactHeights(t, tr, n.L.Plain())
	rh := checkExactHeights(t, tr, n.R.Plain())
	if n.LeftH.Load() != lh || n.RightH.Load() != rh || n.LocalH.Load() != 1+max(lh, rh) {
		t.Fatalf("key %d: estimates (%d,%d,%d), actual (%d,%d,%d)", n.Key.Plain(),
			n.LeftH.Load(), n.RightH.Load(), n.LocalH.Load(), lh, rh, 1+max(lh, rh))
	}
	return 1 + max(lh, rh)
}

// TestBuild: a bulk-built tree of either variant passes the structural
// checks, has height ⌈log2(n+1)⌉ with exact height estimates everywhere
// (the root sentinel included), holds exactly the pairs, and gives
// maintenance nothing to do.
func TestBuild(t *testing.T) {
	for _, v := range variants() {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1000, 4097} {
			tr, th := newTree(t, v)
			pairs := buildPairs(n)
			tr.Build(pairs)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%v n=%d: %v", v, n, err)
			}
			if err := tr.CheckBalanced(1); err != nil {
				t.Fatalf("%v n=%d: %v", v, n, err)
			}
			if h := tr.Height(); h != arena.BuildHeight(n) {
				t.Fatalf("%v n=%d: height %d, want %d", v, n, h, arena.BuildHeight(n))
			}
			rootN := tr.node(tr.root)
			if h := checkExactHeights(t, tr, rootN.L.Plain()); rootN.LeftH.Load() != h || rootN.LocalH.Load() != h+1 {
				t.Fatalf("%v n=%d: sentinel estimates (%d,%d), height %d", v, n, rootN.LeftH.Load(), rootN.LocalH.Load(), h)
			}
			i := 0
			tr.Range(th, 0, MaxKey-1, func(k, val uint64) bool {
				if i >= n || pairs[i].K != k || pairs[i].V != val {
					t.Fatalf("%v n=%d: pair %d = (%d,%d)", v, n, i, k, val)
				}
				i++
				return true
			})
			if i != n {
				t.Fatalf("%v n=%d: scanned %d pairs", v, n, i)
			}
			if w := tr.RunMaintenancePass(); w != 0 {
				t.Fatalf("%v n=%d: maintenance did %d work on a built tree", v, n, w)
			}
			if c := th.Stats().Commits; c != 1 {
				t.Fatalf("%v n=%d: %d commits, want only the scan's", v, n, c)
			}
		}
	}
}

func TestBuildRejectsMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	tr, th := newTree(t, Optimized)
	tr.Insert(th, 1, 1)
	mustPanic("Build on a non-empty tree", func() { tr.Build(buildPairs(2)) })
	tr, _ = newTree(t, Optimized)
	mustPanic("Build of unsorted pairs", func() { tr.Build([]arena.KV{{K: 2}, {K: 1}}) })
	tr, _ = newTree(t, Optimized)
	mustPanic("Build of MaxKey", func() { tr.Build([]arena.KV{{K: MaxKey}}) })
}

// TestMaintLoopBusyExcludesYields: the maintenance loop's busy time must
// not count the time its sweeps spend yielded. At GOMAXPROCS=1 with a
// CPU-bound goroutine competing, every yield of a sweep hands the only
// processor to the spinner for up to a scheduler quantum, so a sweep of a
// few thousand nodes spans most of the wall time while doing a few
// milliseconds of work.
func TestMaintLoopBusyExcludesYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New(stm.New(), WithVariant(Optimized))
	tr.Build(buildPairs(2048))
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for x := 0; !stop.Load(); x++ {
		}
	}()
	start := time.Now()
	tr.Start()
	time.Sleep(400 * time.Millisecond)
	tr.Stop()
	wall := time.Since(start)
	stop.Store(true)
	<-done
	busy := time.Duration(tr.Stats().BusyNanos)
	if tr.YieldNanos() == 0 {
		t.Fatal("no sweep yielded; the test measured nothing")
	}
	if busy > wall/4 {
		t.Fatalf("busy %v of %v wall (yielded %v): descheduled time counted as work",
			busy, wall, time.Duration(tr.YieldNanos()))
	}
}
