package durable

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Recovery reports what Open reconstructed from the directory.
type Recovery struct {
	// State is the recovered key/value map: the newest provably-complete
	// checkpoint chain (full base plus deltas) with the surviving WAL tail
	// replayed over it. The caller loads it into its store and may then
	// drop it (repro.Open does); Pairs keeps its size.
	State map[uint64]uint64
	// Pairs is the number of recovered pairs, len(State) at recovery.
	Pairs int
	// CheckpointGen is the tip generation of the chain loaded (0 when the
	// directory held none).
	CheckpointGen uint64
	// CheckpointPairs counts the pairs the chain's full base contributed;
	// DeltaPairs the delta entries (puts and tombstones) applied on top;
	// ChainDeltas the delta generations in the chain.
	CheckpointPairs int
	DeltaPairs      int
	ChainDeltas     int
	// Segments counts WAL segments scanned; Records the intact records
	// replayed from them.
	Segments int
	Records  int
	// OpsApplied and OpsSkipped split the replayed ops into those applied
	// and those the chain's coverage made redundant (a record op is
	// skipped only when its position is at or below the cut of the newest
	// chain generation that covered its key — the full base covers every
	// key, a delta only its own entries).
	OpsApplied int
	OpsSkipped int
	// TailDroppedBytes counts bytes discarded at the first torn or
	// corrupted record (everything from it on is dropped).
	TailDroppedBytes int
	// Bytes is the total WAL bytes scanned; Appliers the parallel applier
	// partitions the replay ran across; Elapsed the wall time the whole
	// recovery took.
	Bytes    int64
	Appliers int
	Elapsed  time.Duration
}

// parseIndexed extracts the numeric index from names like wal-%016d.log.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	i, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return i, true
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection used to
// spread keys over the recovery applier partitions. Partitioning is by key
// (not by the store's shard routing, which recovery does not know), which
// is sound because replay ordering only matters per key: all records for a
// key carry one shard, and each partition applies its records in global
// (shard, seq) order.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// chainState is one loaded checkpoint chain, partitioned for the appliers.
type chainState struct {
	tipGen     uint64
	baseSeg    uint64
	floors     []uint64       // full base's per-shard cuts: cover every key
	base       [][]kvPair     // full base pairs, bucketed by key partition
	patches    [][]deltaPatch // delta entries in chain order, bucketed by key partition
	basePairs  int
	deltaPairs int
	deltas     int
}

// deltaPatch is one delta entry flattened for replay: the key's new value
// (or tombstone) and the position the covering snapshot was cut at.
type deltaPatch struct {
	k, v uint64
	asof uint64
	del  bool
}

// candidate is one recovery basis to try: a generation chain, base first.
type candidate struct {
	entries []manifestEntry
}

// recoverDir reconstructs the durable state of dir: the newest
// provably-complete checkpoint chain plus an idempotent, partitioned
// replay of the surviving WAL tail across `appliers` goroutines. It also
// reports the highest segment and generation indices seen, so the caller
// opens fresh ones beyond them, and removes stale temporary files.
//
// Candidate order: manifests newest first; then chains reconstructed from
// delta parent links (covers a crash between a delta seal and its manifest
// seal); then bare full checkpoints (directories from before deltas
// existed, and the deepest damage fallback); then the empty state. A
// candidate is provably complete when all its files decode and the segment
// suffix at or above its base has no gaps; when no candidate is, the same
// order is retried tolerating segment gaps (external damage — recovery
// degrades gracefully instead of failing).
func recoverDir(dir string, shards, appliers int) (*Recovery, uint64, uint64, error) {
	start := time.Now()
	rec := &Recovery{State: make(map[uint64]uint64)}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	var segs, fulls, deltas, manifests []uint64
	var maxSeg, maxGen uint64
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // interrupted seal
			continue
		}
		if i, ok := parseIndexed(name, "wal-", ".log"); ok {
			segs = append(segs, i)
			maxSeg = max(maxSeg, i)
		}
		if g, ok := parseIndexed(name, "checkpoint-", ".ckpt"); ok {
			fulls = append(fulls, g)
			maxGen = max(maxGen, g)
		}
		if g, ok := parseIndexed(name, "delta-", ".ckpt"); ok {
			deltas = append(deltas, g)
			maxGen = max(maxGen, g)
		}
		if g, ok := parseIndexed(name, "manifest-", ".mf"); ok {
			manifests = append(manifests, g)
			maxGen = max(maxGen, g)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	desc := func(s []uint64) { sort.Slice(s, func(i, j int) bool { return s[i] > s[j] }) }
	desc(fulls)
	desc(deltas)
	desc(manifests)

	if appliers < 1 {
		appliers = 1
	}
	W := appliers
	rec.Appliers = W

	// Assemble the candidate list. Delta files are decoded at most once
	// and cached — link-walking and chain loading share the reads.
	dcache := make(map[uint64]*deltaFile)
	readDelta := func(gen uint64) *deltaFile {
		if df, ok := dcache[gen]; ok {
			return df
		}
		df, err := readDeltaFile(deltaName(dir, gen))
		if err != nil {
			dcache[gen] = nil
			return nil
		}
		dcache[gen] = &df
		return &df
	}
	fullSet := make(map[uint64]bool, len(fulls))
	for _, g := range fulls {
		fullSet[g] = true
	}
	var cands []candidate
	seen := make(map[string]bool)
	add := func(entries []manifestEntry) {
		sig := fmt.Sprintf("%d/%d", entries[len(entries)-1].gen, len(entries))
		if !seen[sig] {
			seen[sig] = true
			cands = append(cands, candidate{entries: entries})
		}
	}
	for _, g := range manifests {
		m, err := readManifestFile(manifestName(dir, g))
		if err != nil || m.shards != shards {
			continue
		}
		add(m.chain)
	}
	for _, g := range deltas {
		// Reconstruct the chain by parent links: a sealed delta whose
		// manifest never landed (crash in the seal window) is still usable.
		entries := []manifestEntry{{gen: g, delta: true}}
		cur := g
		ok := false
		for range len(deltas) + 1 {
			df := readDelta(cur)
			if df == nil || df.shards != shards || df.parentGen >= cur {
				break
			}
			cur = df.parentGen
			if fullSet[cur] {
				entries = append(entries, manifestEntry{gen: cur})
				ok = true
				break
			}
			entries = append(entries, manifestEntry{gen: cur, delta: true})
		}
		if ok {
			for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
				entries[i], entries[j] = entries[j], entries[i]
			}
			add(entries)
		}
	}
	for _, g := range fulls {
		add([]manifestEntry{{gen: g}})
	}

	// contiguous reports whether the segment suffix at or above base has
	// no gaps up to the highest segment present.
	contiguous := func(base uint64) bool {
		next := base
		for _, s := range segs {
			if s < base {
				continue
			}
			if s != next {
				return false
			}
			next++
		}
		return true
	}

	var cs *chainState
	for pass := 0; pass < 2 && cs == nil; pass++ {
		for _, c := range cands {
			loaded, err := loadChain(dir, shards, W, c.entries, readDelta)
			if err != nil {
				continue
			}
			if pass == 0 && !contiguous(loaded.baseSeg) {
				continue
			}
			cs = loaded
			break
		}
	}
	if cs == nil {
		cs = &chainState{
			floors:  make([]uint64, shards),
			base:    make([][]kvPair, W),
			patches: make([][]deltaPatch, W),
		}
	}
	rec.CheckpointGen = cs.tipGen
	rec.CheckpointPairs = cs.basePairs
	rec.DeltaPairs = cs.deltaPairs
	rec.ChainDeltas = cs.deltas

	// Decode the surviving segments — in parallel, since each segment's
	// CRC checks and record parsing are independent — then resolve the
	// prefix discipline serially in segment order: nothing after the first
	// torn record is trusted, and segments past a torn one contribute
	// nothing (they are not even counted, matching the serial semantics).
	type segResult struct {
		groups  []ShardOps
		records int
		bytes   int
		dropped int
		torn    bool
		err     error
	}
	var replaySegs []uint64
	for _, si := range segs {
		if si >= cs.baseSeg {
			replaySegs = append(replaySegs, si)
		}
	}
	results := make([]segResult, len(replaySegs))
	decodeSeg := func(i int) {
		r := &results[i]
		b, err := os.ReadFile(segmentName(dir, replaySegs[i]))
		if err != nil {
			r.err = err
			return
		}
		r.bytes = len(b)
		if len(b) < segHeaderLen || string(b[:len(segMagic)]) != segMagic {
			// Segment created but its header never reached disk: an empty
			// tail, nothing to replay.
			r.dropped = len(b)
			r.torn = true
			return
		}
		if ns := binary.LittleEndian.Uint32(b[len(segMagic):]); int(ns) != shards {
			r.err = fmt.Errorf("durable: segment %d written with %d shards, log opened with %d", replaySegs[i], ns, shards)
			return
		}
		off := segHeaderLen
		for off < len(b) {
			parts, n, err := readRecord(b[off:], shards)
			if err != nil {
				r.dropped = len(b) - off
				r.torn = true
				break
			}
			r.records++
			r.groups = append(r.groups, parts...)
			off += n
		}
	}
	if W > 1 && len(replaySegs) > 1 {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < min(W, len(replaySegs)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					decodeSeg(i)
				}
			}()
		}
		for i := range replaySegs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range replaySegs {
			decodeSeg(i)
		}
	}
	var groups []ShardOps
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, 0, 0, r.err
		}
		rec.Segments++
		rec.Bytes += int64(r.bytes)
		rec.Records += r.records
		rec.TailDroppedBytes += r.dropped
		groups = append(groups, r.groups...)
		if r.torn {
			break
		}
	}

	// Restore per-shard commit order (append order can differ from commit
	// order under concurrency). Shard-clock positions may be shared by
	// concurrent commits (the STM's slow-path committers adopt a position
	// without a clock RMW of their own), but position-sharing commits held
	// all their write locks simultaneously, so their key sets are disjoint
	// and the stable sort's arbitrary tie order is irrelevant.
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Shard != groups[j].Shard {
			return groups[i].Shard < groups[j].Shard
		}
		return groups[i].Seq < groups[j].Seq
	})

	// Bucket the ops by key partition (order within a bucket preserves the
	// global sort), then run one applier per partition: base pairs, delta
	// patches in chain order, then the record ops — skipping an op only
	// when its position is at or below the cut of the newest chain
	// generation that covered its key. The per-key rule (rather than the
	// per-shard cut alone) closes the late-append window: a record synced
	// after the delta covering its window was cut is replayed, because no
	// delta covered its key.
	type replayOp struct {
		key, val, seq uint64
		shard         int32
		del           bool
	}
	opBuckets := make([][]replayOp, W)
	for _, g := range groups {
		for _, op := range g.Ops {
			w := 0
			if W > 1 {
				w = int(mix64(op.Key) % uint64(W))
			}
			opBuckets[w] = append(opBuckets[w], replayOp{key: op.Key, val: op.Val, seq: g.Seq, shard: int32(g.Shard), del: op.Del})
		}
	}
	type partResult struct {
		state            map[uint64]uint64
		applied, skipped int
	}
	parts := make([]partResult, W)
	apply := func(w int) {
		p := &parts[w]
		p.state = make(map[uint64]uint64, len(cs.base[w])+len(opBuckets[w])/2)
		for _, kv := range cs.base[w] {
			p.state[kv.k] = kv.v
		}
		var asof map[uint64]uint64
		if len(cs.patches[w]) > 0 {
			asof = make(map[uint64]uint64, len(cs.patches[w]))
		}
		for _, d := range cs.patches[w] {
			if d.del {
				delete(p.state, d.k)
			} else {
				p.state[d.k] = d.v
			}
			asof[d.k] = d.asof
		}
		for _, op := range opBuckets[w] {
			limit := cs.floors[op.shard]
			if a, ok := asof[op.key]; ok && a > limit {
				limit = a
			}
			if op.seq <= limit {
				p.skipped++
				continue
			}
			if op.del {
				delete(p.state, op.key)
			} else {
				p.state[op.key] = op.val
			}
			p.applied++
		}
	}
	if W > 1 {
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				apply(w)
			}(w)
		}
		wg.Wait() // merge barrier: every partition (and any multi-shard
		// ftx record's per-shard shares, spread across partitions by key)
		// is fully applied before the states merge
	} else {
		apply(0)
	}
	total := 0
	for w := range parts {
		total += len(parts[w].state)
	}
	rec.State = make(map[uint64]uint64, total)
	for w := range parts {
		for k, v := range parts[w].state {
			rec.State[k] = v
		}
		rec.OpsApplied += parts[w].applied
		rec.OpsSkipped += parts[w].skipped
	}
	rec.Pairs = len(rec.State)
	rec.Elapsed = time.Since(start)
	return rec, maxSeg, maxGen, nil
}

// loadChain loads one candidate chain — full base first, deltas in order —
// bucketing pairs and patches by key partition for the appliers. Any
// decode failure or link inconsistency fails the whole candidate.
func loadChain(dir string, shards, W int, entries []manifestEntry, readDelta func(uint64) *deltaFile) (*chainState, error) {
	if len(entries) == 0 || entries[0].delta {
		return nil, fmt.Errorf("durable: chain does not start at a full base")
	}
	cs := &chainState{
		base:    make([][]kvPair, W),
		patches: make([][]deltaPatch, W),
	}
	meta, pairs, err := readCheckpoint(checkpointName(dir, entries[0].gen), shards)
	if err != nil {
		return nil, err
	}
	cs.floors = meta.cuts
	cs.baseSeg = meta.baseSeg
	cs.tipGen = meta.gen
	cs.basePairs = len(pairs)
	for _, p := range pairs {
		w := 0
		if W > 1 {
			w = int(mix64(p.k) % uint64(W))
		}
		cs.base[w] = append(cs.base[w], p)
	}
	for _, e := range entries[1:] {
		if !e.delta {
			return nil, fmt.Errorf("durable: chain has a full base past the first entry")
		}
		df := readDelta(e.gen)
		if df == nil || df.shards != shards || df.gen != e.gen || df.parentGen != cs.tipGen || df.baseSeg < cs.baseSeg {
			return nil, fmt.Errorf("durable: delta generation %d does not extend the chain", e.gen)
		}
		for _, g := range df.groups {
			cut := df.cuts[g.shard]
			for _, en := range g.entries {
				w := 0
				if W > 1 {
					w = int(mix64(en.k) % uint64(W))
				}
				cs.patches[w] = append(cs.patches[w], deltaPatch{k: en.k, v: en.v, asof: cut, del: en.del})
				cs.deltaPairs++
			}
		}
		cs.tipGen = df.gen
		cs.baseSeg = df.baseSeg
		cs.deltas++
	}
	return cs, nil
}
