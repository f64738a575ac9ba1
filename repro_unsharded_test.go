package repro

import (
	"testing"

	"repro/internal/trees"
)

// TestUnshardedAtomicFallback: an unsharded tree is a one-shard forest, so
// every Atomic transaction — writes, reads, deletes — commits through the
// coordinator's single-shard fallback, on every kind.
func TestUnshardedAtomicFallback(t *testing.T) {
	for _, kind := range trees.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			tr := NewTree(kind)
			defer tr.Close()
			h := tr.NewHandle()
			if err := h.Atomic(func(tx *Txn) error {
				tx.Put(1, 100)
				tx.Put(2, 200)
				return nil
			}); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			if err := h.Atomic(func(tx *Txn) error {
				v1, ok1 := tx.Get(1)
				v2, ok2 := tx.Get(2)
				if !ok1 || !ok2 || v1 != 100 || v2 != 200 {
					t.Errorf("read back %d,%t %d,%t", v1, ok1, v2, ok2)
				}
				tx.Delete(1)
				return nil
			}); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			st := h.XactStats()
			if st.Commits != 2 || st.Fallbacks != st.Commits {
				t.Fatalf("stats %+v: want every commit on the fallback path", st)
			}
			if h.Contains(1) || !h.Contains(2) {
				t.Fatal("final state wrong")
			}
		})
	}
}

// TestShardCountValidated: a shard count below one is a configuration
// error on both constructors — NewTree panics, Open returns the error.
func TestShardCountValidated(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTree(WithShards(0)) did not panic")
			}
		}()
		NewTree(SpeculationFriendly, WithShards(0)).Close()
	}()
	if tr, err := Open(t.TempDir(), SpeculationFriendly, WithShards(0)); err == nil {
		tr.Close()
		t.Error("Open(WithShards(0)) returned no error")
	}
}

// TestUnshardedMaintWorkersClamped: the pool options apply to an unsharded
// tree too, clamped to its one shard — one maintenance driver, as in the
// paper.
func TestUnshardedMaintWorkersClamped(t *testing.T) {
	for name, opt := range map[string]Option{
		"workers": WithMaintWorkers(4),
		"range":   WithMaintWorkerRange(2, 4),
	} {
		tr := NewTree(SpeculationFriendlyOptimized, opt)
		if got := tr.MaintPoolStats().Workers; got != 1 {
			t.Errorf("%s: Workers = %d, want 1", name, got)
		}
		tr.Close()
	}
}

// TestFacadeZeroAllocs: the unsharded facade's single-key operations stay
// off the allocator in steady state. Built WithoutMaintenance so nothing
// runs in the background of the process-wide malloc count. The red-black
// and AVL kinds allocate per update inside their tree code and are not
// covered here.
func TestFacadeZeroAllocs(t *testing.T) {
	for _, kind := range []Kind{SpeculationFriendly, SpeculationFriendlyOptimized, NoRestructuring} {
		t.Run(string(kind), func(t *testing.T) {
			tr := NewTree(kind, WithoutMaintenance())
			defer tr.Close()
			h := tr.NewHandle()
			for k := uint64(0); k < 1024; k += 2 {
				h.Insert(k, k)
			}
			ops := map[string]func(){
				"get":           func() { h.Get(512) },
				"contains":      func() { h.Contains(513) },
				"insert+delete": func() { h.Insert(777, 1); h.Delete(777) },
			}
			for name, op := range ops {
				op() // warm up (shard thread registration, lazy growth)
				if avg := testing.AllocsPerRun(200, op); avg != 0 {
					t.Errorf("%s allocates %.2f times per run, want 0", name, avg)
				}
			}
		})
	}
}
