package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/forest"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// syncEvery is how often the traced run calls Tree.Sync on a durable tree.
const syncEvery = 10 * time.Millisecond

// callSpan is one call the benchmark makes into a layer outside the client
// operations: Sync, Checkpoint, durable.Open, repro.Open, a ladder rung.
type callSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer is the traced run's state: spans, and the layer counters summed
// over every traced window.
type tracer struct {
	r     *runner
	calls []callSpan
	rings []*spanRing
	snaps []obs.Snapshot

	untracedOps, tracedOps   uint64
	untracedTime, tracedTime time.Duration
	acked                    uint64
	st                       stm.Stats
	ms                       sftree.Stats
	busyNs, workerNs         float64
	xs                       ftx.Stats
	ds                       durable.Stats
	xLocal, xCross, syncLat  hist
	gcPauses                 []uint64
	gcBuckets                []float64
	gcCycles, allocBytes     uint64
	recoverS, openS          []float64
}

func newTracer(r *runner) *tracer { return &tracer{r: r} }

func (tr *tracer) call(name string, start, end int64) {
	tr.calls = append(tr.calls, callSpan{name, start, end})
}

// counters is one reading of every layer's public counters.
type counters struct {
	st             stm.Stats
	ms             sftree.Stats
	ps             repro.MaintPoolStats
	xs             ftx.Stats
	ds             durable.Stats
	snap           obs.Snapshot
	pauses         []uint64 // GC stop-the-world pause histogram counts
	buckets        []float64
	cycles, allocs uint64
}

func readCounters(t *repro.Tree, cs []*client) counters {
	c := counters{st: t.Stats(), ms: t.MaintenanceStats(), ps: t.MaintPoolStats(), snap: t.Obs().Snapshot()}
	for _, cl := range cs {
		c.xs.Add(cl.h.XactStats())
	}
	if l := t.Durable(); l != nil {
		c.ds = l.Stats()
	}
	rt := []metrics.Sample{
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(rt)
	h := rt[0].Value.Float64Histogram()
	c.pauses, c.buckets = h.Counts, h.Buckets
	c.cycles, c.allocs = rt[1].Value.Uint64(), rt[2].Value.Uint64()
	return c
}

// windows runs the window on t in four equal parts, alternating untraced
// and traced ones so that neither side gets all of the tree's warm-up, and
// reads every layer's counters around the traced parts. It returns the
// traced parts' epochs.
func (tr *tracer) windows(t *repro.Tree, cs []*client, d time.Duration) []epoch {
	rings := make([]*spanRing, len(cs))
	for i := range rings {
		rings[i] = &spanRing{buf: make([]span, spanCap)}
	}
	tr.rings = append(tr.rings, rings...)
	var eps []epoch
	for range 2 {
		for _, e := range window(cs, d/4) {
			tr.untracedOps += e.ops
			tr.untracedTime += e.dur
		}
		for i, c := range cs {
			c.spans = rings[i]
		}
		eps = append(eps, tr.traced(t, cs, d/4)...)
		for _, c := range cs {
			c.spans = nil
		}
	}
	return eps
}

// traced runs one traced part: client spans on, Tree.Sync called and timed
// every syncEvery on a durable tree, counters read before and after.
func (tr *tracer) traced(t *repro.Tree, cs []*client, d time.Duration) []epoch {
	acked := make([]uint64, len(cs))
	for i, c := range cs {
		acked[i] = c.acked
		c.xactLocal, c.xactCross = hist{}, hist{}
	}
	before := readCounters(t, cs)
	stop, done := make(chan struct{}), make(chan struct{})
	var syncs []callSpan
	var syncErr error
	var syncLat hist
	go func() {
		defer close(done)
		if t.Durable() == nil {
			return
		}
		tick := time.NewTicker(syncEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				start := nanotime()
				if err := t.Sync(); err != nil && syncErr == nil {
					syncErr = err
				}
				end := nanotime()
				syncLat.record(end - start)
				syncs = append(syncs, callSpan{"Tree.Sync", start, end})
			}
		}
	}()
	eps := window(cs, d)
	close(stop)
	<-done
	after := readCounters(t, cs)

	if syncErr != nil {
		tr.r.bad.add("Tree.Sync: %v", syncErr)
	}
	tr.calls = append(tr.calls, syncs...)
	tr.syncLat.add(&syncLat)
	var el time.Duration
	for _, e := range eps {
		el += e.dur
		tr.tracedOps += e.ops
	}
	tr.tracedTime += el
	for i, c := range cs {
		tr.acked += c.acked - acked[i]
		tr.xLocal.add(&c.xactLocal)
		tr.xCross.add(&c.xactCross)
	}
	tr.addDeltas(before, after, el)
	return eps
}

func (tr *tracer) addDeltas(a, b counters, el time.Duration) {
	st := &tr.st
	st.Commits += b.st.Commits - a.st.Commits
	st.Aborts += b.st.Aborts - a.st.Aborts
	for i := range st.AbortCauses {
		st.AbortCauses[i] += b.st.AbortCauses[i] - a.st.AbortCauses[i]
	}
	st.StructuralCommits += b.st.StructuralCommits - a.st.StructuralCommits
	st.StructuralAborts += b.st.StructuralAborts - a.st.StructuralAborts
	st.Extensions += b.st.Extensions - a.st.Extensions

	tr.ms.Rotations += b.ms.Rotations - a.ms.Rotations
	tr.ms.HintsEmitted += b.ms.HintsEmitted - a.ms.HintsEmitted
	tr.ms.HintsCoalesced += b.ms.HintsCoalesced - a.ms.HintsCoalesced
	tr.ms.HintsDropped += b.ms.HintsDropped - a.ms.HintsDropped
	tr.busyNs += float64(b.ps.BusyNanos - a.ps.BusyNanos)
	tr.workerNs += float64(b.ps.Workers) * float64(el)

	tr.xs.Commits += b.xs.Commits - a.xs.Commits
	tr.xs.Fallbacks += b.xs.Fallbacks - a.xs.Fallbacks
	tr.xs.Aborts += b.xs.Aborts - a.xs.Aborts
	tr.xs.IntentConflicts += b.xs.IntentConflicts - a.xs.IntentConflicts

	ds := &tr.ds
	ds.Records += b.ds.Records - a.ds.Records
	ds.Bytes += b.ds.Bytes - a.ds.Bytes
	ds.Syncs += b.ds.Syncs - a.ds.Syncs
	ds.Stalls += b.ds.Stalls - a.ds.Stalls
	ds.Checkpoints += b.ds.Checkpoints - a.ds.Checkpoints
	ds.DeltaCheckpoints += b.ds.DeltaCheckpoints - a.ds.DeltaCheckpoints
	ds.CheckpointBytes += b.ds.CheckpointBytes - a.ds.CheckpointBytes
	ds.CheckpointNanos += b.ds.CheckpointNanos - a.ds.CheckpointNanos

	if tr.gcPauses == nil {
		tr.gcPauses = make([]uint64, len(b.pauses))
		tr.gcBuckets = b.buckets
	}
	for i := range b.pauses {
		tr.gcPauses[i] += b.pauses[i] - a.pauses[i]
	}
	tr.gcCycles += b.cycles - a.cycles
	tr.allocBytes += b.allocs - a.allocs
	tr.snaps = append(tr.snaps, b.snap.Diff(a.snap))
}

// durableOpen restores the pristine directory and times durable.Open on it
// alone: the log layer's share of a restart.
func (tr *tracer) durableOpen(pristine, work string) error {
	if err := copyDir(pristine, work); err != nil {
		return err
	}
	start := nanotime()
	l, _, err := durable.Open(work, tr.r.s.shards, tr.r.s.dur)
	end := nanotime()
	if err != nil {
		return err
	}
	tr.call("durable.Open", start, end)
	tr.recoverS = append(tr.recoverS, float64(end-start)/1e9)
	return l.Close()
}

func perK(n, ops uint64) float64 { return ratio(1000*float64(n), float64(ops)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pauseP99 returns the 99th percentile of the accumulated GC pauses in
// microseconds (the upper edge of the bucket holding it).
func (tr *tracer) pauseP99() float64 {
	var n uint64
	for _, c := range tr.gcPauses {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(n)))
	var seen uint64
	for i, c := range tr.gcPauses {
		if seen += c; seen >= rank {
			edge := tr.gcBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = tr.gcBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// finish turns the traced windows' counters into the per-layer metrics
// and writes the spans.
func (tr *tracer) finish() error {
	r := tr.r
	ops := tr.tracedOps
	secs := tr.tracedTime.Seconds()
	st := tr.st
	appCommits, appAborts := st.Commits-st.StructuralCommits, st.Aborts-st.StructuralAborts
	r.set("stm.abort_ratio", ratio(float64(appAborts), float64(appCommits+appAborts)), "ratio")
	r.set("stm.aborts_validation_per_kop", perK(st.AbortCauses[stm.AbortValidation], ops), "1/kop")
	r.set("stm.aborts_lock_wait_per_kop", perK(st.AbortCauses[stm.AbortLockWait], ops), "1/kop")
	r.set("stm.extensions_per_kop", perK(st.Extensions, ops), "1/kop")
	r.set("stm.structural_commits_per_kop", perK(st.StructuralCommits, ops), "1/kop")
	r.set("stm.structural_abort_ratio", ratio(float64(st.StructuralAborts), float64(st.StructuralCommits+st.StructuralAborts)), "ratio")

	r.set("maint.busy_frac", ratio(tr.busyNs, tr.workerNs), "ratio")
	r.set("maint.rotations_per_kop", perK(tr.ms.Rotations, ops), "1/kop")
	hints := tr.ms.HintsEmitted + tr.ms.HintsCoalesced + tr.ms.HintsDropped
	r.set("maint.hints_dropped_frac", ratio(float64(tr.ms.HintsDropped), float64(hints)), "ratio")

	xs := tr.xs
	r.set("ftx.local_us", tr.xLocal.quantile(0.5)/1e3, "us")
	r.set("ftx.cross_us", tr.xCross.quantile(0.5)/1e3, "us")
	r.set("ftx.retries_per_xact", ratio(float64(xs.Aborts), float64(xs.Commits)), "ratio")
	r.set("ftx.intent_conflicts_per_kxact", perK(xs.IntentConflicts, xs.Commits), "1/kxact")
	r.set("ftx.fallback_frac", ratio(float64(xs.Fallbacks), float64(xs.Commits)), "ratio")

	ds := tr.ds
	r.set("durable.bytes_per_update", ratio(float64(ds.Bytes), float64(ds.Records)), "B")
	r.set("durable.syncs_per_s", ratio(float64(ds.Syncs), secs), "1/s")
	r.set("durable.stalls_per_kupdate", perK(ds.Stalls, ds.Records), "1/kupdate")
	r.set("durable.sync_us", tr.syncLat.quantile(0.5)/1e3, "us")
	r.set("durable.checkpoint_ms", ratio(float64(ds.CheckpointNanos), float64(ds.Checkpoints))/1e6, "ms")
	r.set("durable.write_amp", ratio(float64(ds.Bytes+ds.CheckpointBytes), 16*float64(tr.acked)), "ratio")
	r.set("durable.delta_frac", ratio(float64(ds.DeltaCheckpoints), float64(ds.Checkpoints)), "ratio")
	recoverS := median(tr.recoverS)
	r.set("durable.recover_s", recoverS, "s")
	reload := 0.0
	if len(tr.openS) > 0 {
		reload = median(tr.openS) - recoverS
	}
	r.set("restart.reload_s", reload, "s")

	r.set("gc.pause_p99_us", tr.pauseP99(), "us")
	r.set("gc.cycles_per_s", ratio(float64(tr.gcCycles), secs), "1/s")
	r.set("alloc.bytes_per_op", ratio(float64(tr.allocBytes), float64(ops)), "B")
	untraced := ratio(float64(tr.untracedOps), tr.untracedTime.Seconds())
	r.set("trace.overhead_frac", 1-ratio(ratio(float64(ops), secs), untraced), "ratio")
	return tr.write()
}

// write saves the spans, the observability snapshots' per-window diffs
// and the per-layer metrics as one JSON file next to the run's scratch
// directory.
func (tr *tracer) write() error {
	r := tr.r
	path := filepath.Join(filepath.Dir(r.work), fmt.Sprintf("trace-%s-seed%d.json", r.s.name, r.seed))
	type clientSpan struct {
		Client uint8  `json:"client"`
		Op     string `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		OK     bool   `json:"ok"`
	}
	var spans []clientSpan
	var recorded uint64
	for _, ring := range tr.rings {
		recorded += ring.n
		for _, s := range ring.kept() {
			spans = append(spans, clientSpan{s.client, kindNames[s.kind], s.start, s.end, s.ok})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"workload":       r.s.name,
		"seed":           r.seed,
		"host":           fingerprint(filepath.Dir(r.work)),
		"client_spans":   spans,
		"spans_recorded": recorded,
		"call_spans":     tr.calls,
		"obs_windows":    tr.snaps,
		"per_layer":      r.metrics,
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	return err
}

// Ladder: the workload's own seeded operation stream replayed by one
// client, with maintenance off, through each layer's public entry point in
// turn. The difference between adjacent rungs is the cost of the layer
// between them.
const (
	ladderGets    = 1 << 15
	ladderUpdates = 1 << 13
	ladderScans   = 1 << 9
	ladderReps    = 5 // ns/op is the median over these replays
)

type ladderStream struct {
	gets    []uint64
	updates []op
	scans   []op
}

// newLadderStream draws from the workload's generator until every class
// has its quota, keeping the classes' own order.
func newLadderStream(s *spec, seed int64, sameShard func(a, b uint64) bool) *ladderStream {
	g := newGen(s, seed, 1<<20, sameShard)
	ls := &ladderStream{}
	var o op
	for len(ls.gets) < ladderGets || len(ls.updates) < ladderUpdates || len(ls.scans) < ladderScans {
		g.next(&o)
		switch {
		case o.kind == opGet && len(ls.gets) < ladderGets:
			ls.gets = append(ls.gets, o.k[0])
		case o.kind == opUpdate && len(ls.updates) < ladderUpdates:
			ls.updates = append(ls.updates, o)
		case o.kind == opScan && len(ls.scans) < ladderScans:
			ls.scans = append(ls.scans, o)
		}
	}
	return ls
}

// rung is one layer's entry points for the ladder replay.
type rung struct {
	name   string
	get    func(k uint64)
	insert func(k, v uint64)
	del    func(k uint64)
	scan   func(lo, hi uint64)
}

type rungResult struct{ getNs, updateNs, scanNs, allocs float64 }

var sink uint64

func scanSink(k, v uint64) bool {
	sink += v
	return true
}

func (tr *tracer) replay(ls *ladderStream, rg rung) rungResult {
	passes := []struct {
		class string
		n     int
		run   func()
	}{
		{"get", len(ls.gets), func() {
			for _, k := range ls.gets {
				rg.get(k)
			}
		}},
		{"update", len(ls.updates), func() {
			for i := range ls.updates {
				if o := &ls.updates[i]; o.insert {
					rg.insert(o.k[0], value(o.k[0]))
				} else {
					rg.del(o.k[0])
				}
			}
		}},
		{"scan", len(ls.scans), func() {
			for i := range ls.scans {
				rg.scan(ls.scans[i].k[0], ls.scans[i].k[1])
			}
		}},
	}
	var ns [3][]float64
	for range ladderReps {
		for i, p := range passes {
			if p.class != "get" && rg.insert == nil {
				continue
			}
			start := nanotime()
			p.run()
			end := nanotime()
			tr.call("ladder."+rg.name+"."+p.class, start, end)
			ns[i] = append(ns[i], float64(end-start)/float64(p.n))
		}
	}
	res := rungResult{getNs: median(ns[0]), updateNs: median(ns[1]), scanNs: median(ns[2])}
	if rg.insert != nil {
		// testing.AllocsPerRun runs one warm-up pass, then counts the
		// mallocs of one pass at GOMAXPROCS=1.
		n := float64(len(ls.gets) + len(ls.updates) + len(ls.scans))
		res.allocs = testing.AllocsPerRun(1, func() {
			for _, p := range passes {
				p.run()
			}
		}) / n
	}
	return res
}

// ladder builds each rung over the workload's starting pairs and replays
// the same stream through it. Maintenance is off in every rung, so the
// pairs go in shuffled: sorted inserts would build a list, not a tree.
func (tr *tracer) ladder(pairs []kv) error {
	r := tr.r
	pairs = append([]kv(nil), pairs...)
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	f := forest.New(kind, forest.WithShards(r.s.shards), forest.WithoutMaintenance())
	defer f.Close()
	ls := newLadderStream(r.s, r.seed, f.SameShard)
	n := float64(len(ls.gets) + len(ls.updates) + len(ls.scans))

	s := stm.New()
	th := s.NewThread()
	var words [1 << 10]stm.Word
	var key uint64
	read := func(tx *stm.Tx) { sink += tx.Read(&words[key%uint64(len(words))]) }
	res := tr.replay(ls, rung{name: "stm", get: func(k uint64) { key = k; th.Atomic(read) }})
	r.set("stm.txn_ns", res.getNs, "ns")

	ts := stm.New()
	m := trees.New(kind, ts)
	tth := ts.NewThread()
	for _, p := range pairs {
		m.Insert(tth, p.k, p.v)
	}
	tth.ResetStats()
	res = tr.replay(ls, rung{
		name:   "tree",
		get:    func(k uint64) { m.Get(tth, k) },
		insert: func(k, v uint64) { m.Insert(tth, k, v) },
		del:    func(k uint64) { m.Delete(tth, k) },
		scan:   func(lo, hi uint64) { m.Range(tth, lo, hi, scanSink) },
	})
	st := tth.Stats()
	r.set("tree.get_ns", res.getNs, "ns")
	r.set("tree.update_ns", res.updateNs, "ns")
	r.set("tree.scan_ns", res.scanNs, "ns")
	r.set("tree.allocs_per_op", res.allocs, "allocs")
	r.set("tree.reads_per_op", float64(st.Reads)/(n*(ladderReps+2)), "reads")
	r.set("tree.max_op_reads", float64(st.MaxOpReads), "reads")
	m, ts, tth = nil, nil, nil

	fh := f.NewHandle()
	for _, p := range pairs {
		fh.Insert(p.k, p.v)
	}
	res = tr.replay(ls, rung{
		name:   "forest",
		get:    func(k uint64) { fh.Get(k) },
		insert: func(k, v uint64) { fh.Insert(k, v) },
		del:    func(k uint64) { fh.Delete(k) },
		scan:   func(lo, hi uint64) { fh.Range(lo, hi, scanSink) },
	})
	r.set("forest.get_ns", res.getNs, "ns")
	r.set("forest.update_ns", res.updateNs, "ns")
	r.set("forest.scan_ns", res.scanNs, "ns")
	r.set("forest.allocs_per_op", res.allocs, "allocs")

	// The facade rung is the workload's own configuration, durability
	// included, without the observability the traced windows carry.
	opts := []repro.Option{repro.WithShards(r.s.shards), repro.WithoutMaintenance()}
	var t *repro.Tree
	if r.s.durable {
		var err error
		if t, err = repro.Open(r.dir("ladder"), kind, append(opts, repro.WithDurability(r.s.dur))...); err != nil {
			return err
		}
	} else {
		t = repro.NewTree(kind, opts...)
	}
	h := t.NewHandle()
	load(t, pairs, &r.bad)
	res = tr.replay(ls, rung{
		name:   "facade",
		get:    func(k uint64) { h.Get(k) },
		insert: func(k, v uint64) { h.Insert(k, v) },
		del:    func(k uint64) { h.Delete(k) },
		scan:   func(lo, hi uint64) { h.Range(lo, hi, scanSink) },
	})
	r.set("facade.get_ns", res.getNs, "ns")
	r.set("facade.update_ns", res.updateNs, "ns")
	r.set("facade.scan_ns", res.scanNs, "ns")
	r.set("facade.allocs_per_op", res.allocs, "allocs")
	return closeTree(t)
}
