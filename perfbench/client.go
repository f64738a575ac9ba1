package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

var clockBase = time.Now()

// nanotime is a monotonic clock reading in nanoseconds.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// span is one client operation as the traced run records it.
type span struct {
	start, end int64
	client     uint8
	kind       opKind
	ok         bool
}

// spanRing is a preallocated per-client span buffer that keeps the latest
// len(buf) spans and counts the rest, so recording never allocates.
type spanRing struct {
	buf []span
	n   uint64
}

func (r *spanRing) add(s span) {
	r.buf[r.n%uint64(len(r.buf))] = s
	r.n++
}

// kept returns the retained spans, oldest first.
func (r *spanRing) kept() []span {
	if r.n <= uint64(len(r.buf)) {
		return r.buf[:r.n]
	}
	i := r.n % uint64(len(r.buf))
	return append(append([]span(nil), r.buf[i:]...), r.buf[:i]...)
}

var (
	errMissingAccount = errors.New("account missing inside a transaction")
	errBadValue       = errors.New("value differs from value(key) inside a transaction")
)

// client is one closed-loop caller: it sends its next operation only after
// the previous one returned, records the latency of each, and checks each
// result against what the workload's invariants allow.
type client struct {
	id int
	s  *spec
	h  *repro.Handle
	g  *gen

	epochs    []epochStats // this window's sub-windows; epoch indexes the current one
	epoch     *atomic.Int32
	xactLocal hist // xact ops whose keys all live on one shard
	xactCross hist // xact ops spanning shards
	sameShard func(a, b uint64) bool
	ops       uint64
	failed    uint64
	firstErr  string
	acked     uint64  // acknowledged single-key writes (Insert/Delete true, moved keys, transfer legs)
	net       []int32 // per key: acknowledged inserts minus acknowledged deletes
	spans     *spanRing
	scanState struct {
		prev uint64
		n    int
		bad  bool
	}
	cur        *op
	moved      int
	scanFn     func(k, v uint64) bool
	transferFn func(t *repro.Txn) error
	moveFn     func(t *repro.Txn) error
}

func newClient(id int, s *spec, t *repro.Tree, g *gen, net []int32) *client {
	c := &client{id: id, s: s, h: t.NewHandle(), g: g, sameShard: t.SameShard, net: net}
	c.scanFn = c.visit
	c.transferFn = c.transfer
	c.moveFn = c.move
	return c
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf("client %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

func (c *client) isAccount(k uint64) bool { return k < c.s.accounts }

// do runs one operation and checks its result.
func (c *client) do(o *op) {
	c.cur = o
	start := nanotime()
	ok := true
	switch o.kind {
	case opGet:
		k := o.k[0]
		v, present := c.h.Get(k)
		if c.isAccount(k) {
			ok = present && v <= c.s.accounts*initBalance
		} else {
			ok = !present || v == value(k)
		}
		if !ok {
			c.fail("Get(%d) = %d, %v", k, v, present)
		}
	case opUpdate:
		k := o.k[0]
		if o.insert {
			if c.h.Insert(k, value(k)) {
				c.net[k]++
				c.acked++
			}
		} else if c.h.Delete(k) {
			c.net[k]--
			c.acked++
		}
	case opXact:
		fn := c.moveFn
		if c.s.accounts > 0 {
			fn = c.transferFn
		}
		if err := c.h.Atomic(fn); err != nil {
			ok = false
			c.fail("Atomic(%v) = %v", o.k[:c.s.xactWidth()], err)
		} else if c.moved != 0 {
			if a, b := o.k[0], o.k[1]; c.s.accounts == 0 {
				if c.moved == 2 {
					a, b = b, a
				}
				c.net[a]--
				c.net[b]++
			}
			c.acked += 2
		}
	case opScan:
		c.scanState.n, c.scanState.bad = 0, false
		c.h.Range(o.k[0], o.k[1], c.scanFn)
		ok = !c.scanState.bad && (c.s.accounts == 0 || c.scanState.n == scanKeys)
		if !ok {
			c.fail("Range(%d, %d) returned %d pairs, out of order, out of bounds or with a wrong value", o.k[0], o.k[1], c.scanState.n)
		}
	}
	end := nanotime()
	ep := &c.epochs[c.epoch.Load()]
	ep.lat[o.kind].record(end - start)
	ep.ops++
	if o.kind == opXact {
		if c.local(o) {
			c.xactLocal.record(end - start)
		} else {
			c.xactCross.record(end - start)
		}
	}
	c.ops++
	if c.spans != nil {
		c.spans.add(span{start: start, end: end, client: uint8(c.id), kind: o.kind, ok: ok})
	}
}

func (c *client) local(o *op) bool {
	for _, k := range o.k[1:c.s.xactWidth()] {
		if !c.sameShard(o.k[0], k) {
			return false
		}
	}
	return true
}

func (c *client) visit(k, v uint64) bool {
	st, o := &c.scanState, c.cur
	if k < o.k[0] || k > o.k[1] || (st.n > 0 && k <= st.prev) || (!c.isAccount(k) && v != value(k)) {
		st.bad = true
	}
	st.prev = k
	st.n++
	return true
}

// transfer moves one unit from the richest of the op's accounts to the
// poorest (ties: first richest, last poorest, so equal balances still
// move). It runs inside Handle.Atomic and may be re-executed; c.moved is 1
// when the committed execution wrote.
func (c *client) transfer(t *repro.Txn) error {
	ks := c.cur.k[:xactKeys]
	c.moved = 0
	hi, lo := 0, 0
	var bal [xactKeys]uint64
	for i, k := range ks {
		b, ok := t.Get(k)
		if !ok {
			return errMissingAccount
		}
		bal[i] = b
		if b > bal[hi] {
			hi = i
		}
		if b <= bal[lo] {
			lo = i
		}
	}
	if hi == lo || bal[hi] == 0 {
		return nil
	}
	t.Put(ks[hi], bal[hi]-1)
	t.Put(ks[lo], bal[lo]+1)
	c.moved = 1
	return nil
}

// move relocates whichever of the op's two keys is present to the other
// when exactly one is, keeping every value equal to value(key). It runs
// inside Handle.Atomic; c.moved reports the committed execution's choice
// (1: k[0]→k[1], 2: k[1]→k[0]).
func (c *client) move(t *repro.Txn) error {
	a, b := c.cur.k[0], c.cur.k[1]
	c.moved = 0
	va, pa := t.Get(a)
	vb, pb := t.Get(b)
	if (pa && va != value(a)) || (pb && vb != value(b)) {
		return errBadValue
	}
	switch {
	case pa && !pb:
		t.Delete(a)
		t.Insert(b, value(b))
		c.moved = 1
	case pb && !pa:
		t.Delete(b)
		t.Insert(a, value(a))
		c.moved = 2
	}
	return nil
}

// epochStats is one client's record of one sub-window.
type epochStats struct {
	lat [numKinds]hist
	ops uint64
}

// epoch is one sub-window of a window, merged over the clients.
type epoch struct {
	dur time.Duration
	epochStats
}

// subWindow is the length of one epoch. Every window metric is the median
// over epochs, so a burst of CPU steal from other tenants of the host, or
// a periodic checkpoint, spoils a few epochs instead of the whole run.
const subWindow = time.Second

// window runs every client closed-loop for d and returns its epochs.
func window(cs []*client, d time.Duration) []epoch {
	n := max(1, int((d+subWindow/2)/subWindow))
	var cur atomic.Int32
	for _, c := range cs {
		c.epochs = make([]epochStats, n)
		c.epoch = &cur
	}
	// Every window starts right after a collection, so runs see the same
	// GC phase instead of zero or one cycle depending on leftover garbage.
	runtime.GC()
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var o op
			for !stop.Load() {
				c.g.next(&o)
				c.do(&o)
			}
		}()
	}
	eps := make([]epoch, n)
	prev := start
	for i := range eps {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * d / time.Duration(n))))
		now := time.Now()
		if i+1 < n {
			cur.Store(int32(i + 1))
		} else {
			stop.Store(true)
		}
		eps[i].dur = now.Sub(prev)
		prev = now
	}
	wg.Wait()
	for i := range eps {
		for _, c := range cs {
			for k := range eps[i].lat {
				eps[i].lat[k].add(&c.epochs[i].lat[k])
			}
			eps[i].ops += c.epochs[i].ops
		}
	}
	for _, c := range cs {
		c.epochs = nil
	}
	return eps
}
