package arena

import (
	"fmt"
	"math/bits"
)

// KV is one key/value pair of a bulk build.
type KV struct{ K, V uint64 }

// BuildHeight is the height of the tree Build makes from n pairs,
// ⌈log2(n+1)⌉: splitting every run at its middle fills each level but the
// last.
func BuildHeight(n int) int { return bits.Len(uint(n)) }

// Build allocates one node per pair and links them, with plain writes, into
// a balanced binary search tree: each run of pairs is split at its middle
// element, which becomes the subtree root over the two halves. The pairs
// must be sorted by strictly increasing key (Build panics otherwise). fix
// is called once per node, after both of its subtrees are linked, with the
// node's depth (the root is at depth 1) and the heights of its left and
// right subtrees, so each tree kind can set its own balance information.
// Build returns the root (Nil for no pairs) and the tree's height.
//
// The nodes take one contiguous run of fresh slots in key order (one lock
// acquisition for the whole build, and in-order scans walk memory
// forward). They are private to the caller until it publishes the root:
// Build runs no transactions, so it is only for a tree no other goroutine
// can reach yet.
func (a *Arena) Build(pairs []KV, fix func(r Ref, n *Node, depth, lh, rh int)) (Ref, int) {
	for i := 1; i < len(pairs); i++ {
		if pairs[i].K <= pairs[i-1].K {
			panic(fmt.Sprintf("arena: Build pairs not strictly increasing at %d (%d after %d)", i, pairs[i].K, pairs[i-1].K))
		}
	}
	if len(pairs) == 0 {
		return Nil, 0
	}
	return a.link(a.allocRun(len(pairs)), pairs, 0, len(pairs), 1, fix)
}

// link fills the nodes first+lo .. first+hi-1 with pairs[lo:hi] and links
// them into a subtree split at the middle, returning its root and height.
// The slots are fresh from a zeroed chunk, so they already hold Alloc's
// initial state but for the key, the value and LocalH — and the links,
// written only where non-nil.
func (a *Arena) link(first Ref, pairs []KV, lo, hi, depth int, fix func(r Ref, n *Node, depth, lh, rh int)) (Ref, int) {
	if lo == hi {
		return Nil, 0
	}
	mid := lo + (hi-lo-1)/2
	l, lh := a.link(first, pairs, lo, mid, depth+1, fix)
	rr, rh := a.link(first, pairs, mid+1, hi, depth+1, fix)
	r := first + Ref(mid)
	n := a.Get(r)
	n.Key.SetPlain(pairs[mid].K)
	n.Val.SetPlain(pairs[mid].V)
	n.LocalH.Store(1)
	if l != Nil {
		n.L.SetPlain(l)
	}
	if rr != Nil {
		n.R.SetPlain(rr)
	}
	fix(r, n, depth, lh, rh)
	return r, 1 + max(lh, rh)
}
