package repro

import (
	"fmt"
	"testing"
)

// TestOpenBulkBuild: Open builds the recovered pairs straight into the
// shards' trees and seals its rebasing checkpoint from them, so the STM
// commit count right after Open does not grow with the recovered size (the
// old per-key reload ran one transaction per pair). The tree holds exactly
// the pairs, Recovery drops its map but keeps the count, and the rebased
// checkpoint alone recovers everything on the next Open.
func TestOpenBulkBuild(t *testing.T) {
	durableKindsAndShards(t, func(t *testing.T, kind Kind, shards int) {
		commits := make(map[int]uint64)
		for _, n := range []int{300, 3000} {
			dir := t.TempDir()
			tr, err := Open(dir, kind, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			h := tr.NewHandle()
			model := make(map[uint64]uint64, n)
			for i := 0; i < n; i++ {
				k := uint64(i) * 2654435761 % (1 << 30)
				h.Insert(k, k^0x5bd1)
				model[k] = k ^ 0x5bd1
			}
			tr.Close()

			tr, err = Open(dir, kind, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			commits[n] = tr.Stats().Commits
			rec := tr.Recovery()
			if rec.Pairs != n || rec.State != nil {
				t.Fatalf("n=%d: Recovery reports %d pairs (state map kept: %v)", n, rec.Pairs, rec.State != nil)
			}
			assertStateEqual(t, tr.NewHandle(), model, fmt.Sprintf("n=%d after Open", n))
			tr.Close()

			tr, err = Open(dir, kind, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			if rec := tr.Recovery(); rec.CheckpointPairs != n || rec.OpsApplied != 0 {
				t.Fatalf("n=%d: rebased checkpoint holds %d pairs, %d ops replayed", n, rec.CheckpointPairs, rec.OpsApplied)
			}
			assertStateEqual(t, tr.NewHandle(), model, fmt.Sprintf("n=%d after the second Open", n))
			tr.Close()
		}
		if commits[3000] != commits[300] {
			t.Fatalf("commits after Open grew with the recovered size: %v", commits)
		}
	})
}
