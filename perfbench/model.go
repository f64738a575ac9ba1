package main

import (
	"fmt"

	"repro"
)

type kv struct{ k, v uint64 }

// model is what a workload's tree must hold: the keys present before a
// window plus, per client, the acknowledged inserts minus deletes of each
// key during it. A linearizable set applies every acknowledged write, so
// each key's total lands on 0 or 1 and says whether the key is present.
type model struct {
	s       *spec
	present []bool
	nets    [][]int32
}

func newModel(s *spec, present []bool) *model {
	m := &model{s: s, present: present, nets: make([][]int32, clients)}
	for i := range m.nets {
		m.nets[i] = make([]int32, s.universe)
	}
	return m
}

// violations collects check failures; each one counts as a failed
// operation in the result.
type violations struct {
	n     uint64
	first string
}

func (v *violations) add(format string, args ...any) {
	v.n++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// snapshot reads the whole tree with Ascend and checks it is strictly
// ascending and agrees with Len.
func snapshot(h *repro.Handle, bad *violations) []kv {
	pairs := make([]kv, 0, h.Len())
	h.Ascend(func(k, v uint64) bool {
		if n := len(pairs); n > 0 && k <= pairs[n-1].k {
			bad.add("Ascend visited %d after %d", k, pairs[n-1].k)
		}
		pairs = append(pairs, kv{k, v})
		return true
	})
	if n := h.Len(); n != len(pairs) {
		bad.add("Len() = %d but Ascend visited %d pairs", n, len(pairs))
	}
	return pairs
}

// check compares the tree against the model after a window, then makes
// the checked state the model's new starting point. It returns the
// tree's pairs.
func (m *model) check(h *repro.Handle, bad *violations) []kv {
	pairs := snapshot(h, bad)
	var sum uint64
	i := 0
	for k := uint64(0); k < m.s.universe; k++ {
		want := int32(0)
		if m.present[k] {
			want = 1
		}
		for _, net := range m.nets {
			want += net[k]
			net[k] = 0
		}
		has := i < len(pairs) && pairs[i].k == k
		switch {
		case want < 0 || want > 1:
			bad.add("key %d: acknowledged inserts minus deletes leave %d copies", k, want)
		case has != (want == 1):
			bad.add("key %d: present=%v, acknowledged writes say %v", k, has, want == 1)
		}
		m.present[k] = has
		if !has {
			continue
		}
		if k < m.s.accounts {
			sum += pairs[i].v
		} else if pairs[i].v != value(k) {
			bad.add("key %d holds %d, want %d", k, pairs[i].v, value(k))
		}
		i++
	}
	if i != len(pairs) {
		bad.add("%d keys outside the universe", len(pairs)-i)
	}
	if want := m.s.accounts * initBalance; sum != want {
		bad.add("accounts hold %d in total, want %d", sum, want)
	}
	return pairs
}

// checkEqual requires the tree to hold exactly want.
func checkEqual(h *repro.Handle, want []kv, bad *violations) {
	got := snapshot(h, bad)
	if len(got) != len(want) {
		bad.add("recovered %d pairs, want %d", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			bad.add("recovered pair %d is %d=%d, want %d=%d", i, got[i].k, got[i].v, want[i].k, want[i].v)
			return
		}
	}
}

// corrupt changes one pair behind the model's back, so the checks that
// follow must fail: "value" flips a bit of a value, "key" drops a key.
func corrupt(h *repro.Handle, how string) error {
	var k, v uint64
	found := false
	h.Ascend(func(kk, vv uint64) bool {
		k, v, found = kk, vv, true
		return false
	})
	if !found {
		return fmt.Errorf("corrupt: tree is empty")
	}
	switch how {
	case "value":
		h.Delete(k)
		h.Insert(k, v^1)
	case "key":
		h.Delete(k)
	default:
		return fmt.Errorf("corrupt: unknown mode %q (want value or key)", how)
	}
	return nil
}
