package main

import (
	"testing"
	"time"

	"repro"
)

// smallSpec is xact-scan shrunk to a universe a test fills in milliseconds:
// accounts, transfers, scans and updates all run.
func smallSpec() *spec {
	s, _ := specByName("xact-scan")
	s.universe, s.accounts = 1<<10, 1<<9
	return &s
}

func runSmall(t *testing.T, s *spec, how string) uint64 {
	t.Helper()
	r := &runner{s: s, seed: 3}
	present, pairs := r.initialState()
	tree := repro.NewTree(kind, repro.WithShards(s.shards))
	defer tree.Close()
	load(tree, pairs, &r.bad)
	m := newModel(s, present)
	cs := r.newClients(tree, m, 0)
	window(cs, 100*time.Millisecond)
	var failed uint64
	for _, c := range cs {
		failed += c.failed
		if c.ops == 0 {
			t.Fatalf("client %d ran no operations", c.id)
		}
	}
	h := tree.NewHandle()
	if how != "" {
		if err := corrupt(h, how); err != nil {
			t.Fatal(err)
		}
	}
	m.check(h, &r.bad)
	return failed + r.bad.n
}

func TestChecksPassOnCorrectRun(t *testing.T) {
	if n := runSmall(t, smallSpec(), ""); n != 0 {
		t.Fatalf("%d failures on an uncorrupted run", n)
	}
}

func TestChecksCatchCorruption(t *testing.T) {
	for _, how := range []string{"value", "key"} {
		if n := runSmall(t, smallSpec(), how); n == 0 {
			t.Errorf("corrupt %s: checks reported no failure", how)
		}
	}
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	s := smallSpec()
	same := func(a, b uint64) bool { return a%2 == b%2 }
	g1, g2 := newGen(s, 9, 0, same), newGen(s, 9, 0, same)
	other := newGen(s, 10, 0, same)
	differ := false
	for range 1000 {
		var a, b, c op
		g1.next(&a)
		g2.next(&b)
		other.next(&c)
		if a != b {
			t.Fatalf("same seed, different ops: %+v vs %+v", a, b)
		}
		differ = differ || a != c
	}
	if !differ {
		t.Fatal("different seeds drew the same stream")
	}
}
