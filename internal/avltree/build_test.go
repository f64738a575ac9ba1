package avltree

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/stm"
)

// TestBuild: a bulk-built tree passes the AVL checks (exact stored
// heights, balance), has height ⌈log2(n+1)⌉, holds exactly the pairs, and
// keeps its invariants under transactional updates.
func TestBuild(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 100, 1000, 4097} {
		s := stm.New()
		tr, th := New(s), s.NewThread()
		pairs := make([]arena.KV, n)
		for i := range pairs {
			pairs[i] = arena.KV{K: uint64(2*i + 1), V: uint64(i)}
		}
		tr.Build(pairs)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		h := 0
		if r := tr.root.Plain(); r != arena.Nil {
			h = int(tr.node(r).Aux.Plain())
		}
		if h != arena.BuildHeight(n) {
			t.Fatalf("n=%d: height %d, want %d", n, h, arena.BuildHeight(n))
		}
		if got := tr.Size(th); got != n {
			t.Fatalf("n=%d: size %d", n, got)
		}
		for _, p := range pairs {
			if v, ok := tr.Get(th, p.K); !ok || v != p.V {
				t.Fatalf("n=%d: Get(%d) = (%d,%v)", n, p.K, v, ok)
			}
		}
		for i := 0; i < 2*n; i += 2 {
			tr.Insert(th, uint64(i), 0)
			tr.Delete(th, uint64(2*(i/3)+1))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d after updates: %v", n, err)
		}
	}
}
