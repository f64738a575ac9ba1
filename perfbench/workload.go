package main

import (
	"math/rand"

	"repro"
	"repro/internal/bench"
)

// opKind is the class of one client operation; every class has its own
// latency recorder.
type opKind uint8

const (
	opGet    opKind = iota // Handle.Get
	opUpdate               // Handle.Insert or Handle.Delete
	opXact                 // Handle.Atomic
	opScan                 // Handle.Range
	numKinds
)

var kindNames = [numKinds]string{"get", "update", "xact", "scan"}

// spec is one workload: the tree configuration, the key universe and the
// operation mix its closed-loop clients draw from. See README.md for why
// each workload exists.
type spec struct {
	name   string
	shards int
	// durable opens the tree in a directory (repro.Open) with dur as its
	// durability dials; otherwise the tree is in memory (repro.NewTree).
	durable bool
	dur     repro.DurabilityOptions
	// universe is the key range the mix draws from. Each key that is not
	// an account starts present with probability 1/2.
	universe uint64
	// zipf draws keys Zipf(s=0.99)-skewed over the universe; otherwise
	// uniformly.
	zipf bool
	// accounts turns the first `accounts` keys into balances: all present
	// from the start, moved between by 4-key transfers, and never inserted
	// or deleted. Updates then draw from the keys above them.
	accounts uint64
	// mix is the per-10000 share of each operation class.
	mix [numKinds]int
	// restart replaces the single long window with repeated restarts of a
	// prepared directory, each followed by a short serving window.
	restart bool
}

const (
	kind          = repro.SpeculationFriendlyOptimized
	clients       = 2
	zipfS         = 0.99
	scanKeys      = 100  // keys a scan returns (on a half-full universe its interval is twice as wide)
	xactKeys      = 4    // keys read by an account transfer
	initBalance   = 1000 // starting balance of every account
	restartLoad   = 1 << 18
	restartChurn  = 1 << 14 // updates between the loader's checkpoints
	restartRounds = 4       // churn rounds; a checkpoint follows all but the last
)

var specs = []spec{
	{
		name:     "read-large",
		shards:   1,
		universe: 1 << 20,
		mix:      [numKinds]int{opGet: 8950, opUpdate: 1000, opXact: 25, opScan: 25},
	},
	{
		name:     "write-skew",
		shards:   2,
		durable:  true,
		universe: 1 << 16,
		zipf:     true,
		mix:      [numKinds]int{opGet: 4975, opUpdate: 4975, opXact: 25, opScan: 25},
	},
	{
		name:     "xact-scan",
		shards:   2,
		universe: 1 << 17,
		accounts: 1 << 16,
		mix:      [numKinds]int{opGet: 6400, opUpdate: 100, opXact: 2500, opScan: 1000},
	},
	{
		name:     "restart",
		shards:   2,
		durable:  true,
		dur:      repro.DurabilityOptions{CheckpointEvery: -1},
		universe: 1 << 19,
		restart:  true,
		mix:      [numKinds]int{opGet: 7000, opUpdate: 2000, opXact: 500, opScan: 500},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// value is the value every Insert stores at k, so any Get, scan or
// recovered pair whose value differs from value(k) is a corruption.
func value(k uint64) uint64 { return splitmix(k ^ 0x76616c7565) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// op is one generated operation. k holds the key (get, update), the
// transfer or move keys (xact), or the scan bounds k[0]..k[1].
type op struct {
	kind   opKind
	insert bool // update: Insert rather than Delete
	cross  bool // xact: keys drawn over the whole key space, not one shard
	k      [xactKeys]uint64
}

// gen draws one client's operation stream. It depends only on the
// workload, the seed and the stream id, so the same arguments replay the
// same operations.
type gen struct {
	s         *spec
	rng       *rand.Rand
	zipf      *bench.ZipfGen
	sameShard func(a, b uint64) bool
}

func newGen(s *spec, seed int64, stream int, sameShard func(a, b uint64) bool) *gen {
	src := rand.New(rand.NewSource(int64(splitmix(uint64(seed)*1000003 + uint64(stream)))))
	g := &gen{s: s, rng: src, sameShard: sameShard}
	if s.zipf {
		g.zipf = bench.NewZipfGen(rand.New(rand.NewSource(src.Int63())), zipfS, s.universe)
	}
	return g
}

// key draws a key of the update key space: Zipf ranks are scattered over
// the universe by an odd multiplier (a bijection mod 2^n), so the hot keys
// land on both shards and all over the tree.
func (g *gen) key() uint64 {
	lo, n := g.s.accounts, g.s.universe-g.s.accounts
	if g.zipf != nil {
		return lo + (g.zipf.Uint64()*0x9e3779b97f4a7c15)&(n-1)
	}
	return lo + uint64(g.rng.Int63n(int64(n)))
}

func (g *gen) account() uint64 { return uint64(g.rng.Int63n(int64(g.s.accounts))) }

func (g *gen) next(o *op) {
	r := g.rng.Intn(10000)
	o.kind = opGet
	for k := opKind(0); k < numKinds; k++ {
		if r < g.s.mix[k] {
			o.kind = k
			break
		}
		r -= g.s.mix[k]
	}
	switch o.kind {
	case opGet:
		if g.s.accounts > 0 {
			o.k[0] = g.account()
		} else {
			o.k[0] = g.key()
		}
	case opUpdate:
		o.k[0] = g.key()
		o.insert = g.rng.Intn(2) == 0
	case opXact:
		o.cross = g.rng.Intn(2) == 0
		g.xactKeys(o)
	case opScan:
		// Accounts are all present, so scanKeys accounts are exactly
		// scanKeys consecutive keys; elsewhere the universe is about half
		// full and the interval is twice as wide.
		width := uint64(scanKeys)
		space := g.s.accounts
		if space == 0 {
			width, space = 2*scanKeys, g.s.universe
		}
		o.k[0] = uint64(g.rng.Int63n(int64(space - width + 1)))
		o.k[1] = o.k[0] + width - 1
	}
}

// xactKeys draws distinct transfer keys (accounts) or a move pair (other
// workloads). A confined transaction keeps every key on the first key's
// shard (Tree.SameShard); a cross one draws them freely.
func (g *gen) xactKeys(o *op) {
	n := xactKeys
	draw := g.account
	if g.s.accounts == 0 {
		n, draw = 2, g.key
	}
	for i := 0; i < n; {
		k := draw()
		if i > 0 && !o.cross && !g.sameShard(o.k[0], k) {
			continue
		}
		dup := false
		for _, prev := range o.k[:i] {
			dup = dup || prev == k
		}
		if !dup {
			o.k[i] = k
			i++
		}
	}
}

// xactWidth is the number of keys an xact op touches in this workload.
func (s *spec) xactWidth() int {
	if s.accounts > 0 {
		return xactKeys
	}
	return 2
}
