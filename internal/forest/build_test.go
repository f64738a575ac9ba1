package forest

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/trees"
)

// TestBuiltForestOracle: a forest bulk-built from Runs (every kind, shards
// {1, 8}) holds exactly the input pairs, passes each shard's structural
// checks, then matches a model through a random operation stream with
// maintenance on.
func TestBuiltForestOracle(t *testing.T) {
	const keyRange = 1 << 12
	for _, kind := range trees.Kinds() {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards)*31 + int64(len(kind))))
				model := make(map[uint64]uint64)
				for len(model) < keyRange/2 {
					k := uint64(rng.Intn(keyRange))
					model[k] = k*7 + 1
				}
				runs := Runs(shards, model)
				for si, run := range runs {
					for i, p := range run {
						if shardOf(p.K, shards) != si || i > 0 && run[i-1].K >= p.K {
							t.Fatalf("run %d: pair %d (key %d) misrouted or out of order", si, i, p.K)
						}
					}
				}
				f := New(kind, WithShards(shards), WithMaintWorkers(2), WithContents(runs))
				defer f.Close()
				checkBuiltInvariants(t, f)
				h := f.NewHandle()
				checkModel(t, h, model)
				for i := 0; i < 6000; i++ {
					k := uint64(rng.Intn(keyRange))
					switch rng.Intn(3) {
					case 0:
						if got, want := h.Insert(k, k), !has(model, k); got != want {
							t.Fatalf("Insert(%d) = %v, model %v", k, got, want)
						} else if want {
							model[k] = k
						}
					case 1:
						if got, want := h.Delete(k), has(model, k); got != want {
							t.Fatalf("Delete(%d) = %v, model %v", k, got, want)
						}
						delete(model, k)
					default:
						if v, ok := h.Get(k); ok != has(model, k) || ok && v != model[k] {
							t.Fatalf("Get(%d) = (%d,%v), model (%d,%v)", k, v, ok, model[k], has(model, k))
						}
					}
				}
				f.Quiesce(1 << 20)
				checkModel(t, h, model)
				checkBuiltInvariants(t, f)
			})
		}
	}
}

func checkModel(t *testing.T, h *Handle, model map[uint64]uint64) {
	t.Helper()
	n := 0
	h.Range(0, ^uint64(0), func(k, v uint64) bool {
		if mv, ok := model[k]; !ok || mv != v {
			t.Fatalf("pair (%d,%d) not in the model", k, v)
		}
		n++
		return true
	})
	if n != len(model) {
		t.Fatalf("%d pairs, model %d", n, len(model))
	}
}

func checkBuiltInvariants(t *testing.T, f *Forest) {
	t.Helper()
	for si, sh := range f.shards {
		if c, ok := sh.m.(interface{ CheckInvariants() error }); ok {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("shard %d: %v", si, err)
			}
		}
	}
}

// TestSnapshotBoundedUnderHotWriters: a checkpoint snapshot of a shard
// that writers keep updating on a few hot keys finishes within a bounded
// number of transaction attempts (one per chunk plus a few retries each),
// and still reads every pair: the cold keys with their values, the hot
// keys present.
func TestSnapshotBoundedUnderHotWriters(t *testing.T) {
	const n = 4096
	state := make(map[uint64]uint64, n)
	for k := uint64(0); k < n; k++ {
		state[k] = k
	}
	f := New(trees.SFOpt, WithContents(Runs(1, state)))
	defer f.Close()
	hot := []uint64{1, n / 3, n / 2, n - 2}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := f.NewHandle()
			for i := 0; !stop.Load(); i++ {
				k := hot[(i+w)%len(hot)]
				h.Update(k, func(op *Op) {
					v, _ := op.Get(k)
					op.Delete(k)
					op.Insert(k, v+1)
				})
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	time.Sleep(20 * time.Millisecond) // let the writers get going
	th := f.ckptThread(0)
	for round := 0; round < 5; round++ {
		before := th.Stats()
		got := 0
		f.SnapshotShard(0, func(k, v uint64) {
			if k != uint64(got) || v != k && k != 1 && k != n/3 && k != n/2 && k != n-2 {
				t.Fatalf("pair %d = (%d,%d)", got, k, v)
			}
			got++
		})
		if got != n {
			t.Fatalf("snapshot read %d pairs, want %d", got, n)
		}
		st := th.Stats()
		attempts := st.Commits + st.Aborts - before.Commits - before.Aborts
		if chunks := uint64(n/snapshotChunk + 1); attempts > 8*chunks {
			t.Fatalf("round %d: %d attempts for %d chunks", round, attempts, chunks)
		}
	}
}

// TestPoolBusyExcludesYields: the maintenance pool's busy time must not
// count the time its sweeps spend yielded (see sftree's
// TestMaintLoopBusyExcludesYields), or sizePolicy reads a descheduled
// worker as a saturated one.
func TestPoolBusyExcludesYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := New(trees.SFOpt, WithMaintWorkers(1))
	h := f.NewHandle()
	for k := uint64(0); k < 512; k++ {
		h.Insert(k*257%512, k)
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for x := 0; !stop.Load(); x++ {
		}
	}()
	b0, s0 := f.PoolStats().BusyNanos, f.PoolStats().Sweeps
	start := time.Now()
	time.Sleep(400 * time.Millisecond)
	f.Close() // waits out the sweep in progress
	wall := time.Since(start)
	stop.Store(true)
	<-done
	ps := f.PoolStats()
	if ps.Sweeps == s0 {
		t.Fatal("no sweep ran; the test measured nothing")
	}
	if busy := time.Duration(ps.BusyNanos - b0); busy > wall/4 {
		t.Fatalf("pool busy %v of %v wall over %d sweeps: descheduled time counted as work",
			busy, wall, ps.Sweeps-s0)
	}
}

func TestSortRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 255, 256, 1000, 20000} {
		for _, mask := range []uint64{1<<16 - 1, 1<<40 - 1, ^uint64(0), 0xff00} {
			seen := make(map[uint64]bool)
			run := make([]arena.KV, 0, n)
			for try := 0; len(run) < n && try < 4*n; try++ {
				k := rng.Uint64() & mask
				if !seen[k] {
					seen[k] = true
					run = append(run, arena.KV{K: k, V: ^k})
				}
			}
			got := sortRun(slices.Clone(run))
			want := slices.Clone(run)
			slices.SortFunc(want, func(a, b arena.KV) int { return cmp.Compare(a.K, b.K) })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d mask=%#x: radix order differs", n, mask)
			}
		}
	}
}
