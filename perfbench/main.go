// Command perfbench is the repository's benchmark: seeded, closed-loop
// workloads run through the public repro facade, with every client result
// checked. One run prints the end-to-end metrics (or, with -trace 1, the
// per-layer ones) as the last line of standard output:
//
//	go run . -workload write-skew -seed 1 -seconds 50 -trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro"
)

const (
	minReps        = 3   // set-ups and reloads per run; setup_s and recovery_s are their medians
	maxReps        = 9   // cheap ones repeat up to this many times within repBudget
	repBudget      = 1.5 // seconds
	durableReopens = 11  // timed reopens of a durable tree; recovery_s is their median
	minRestarts    = 3   // minimum restarts in a restart run
	serveWindow    = time.Second
	spanCap        = 1 << 14 // spans kept per client in a traced run
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runner struct {
	s       *spec
	seed    int64
	seconds time.Duration
	traced  bool
	corrupt string
	work    string

	metrics  map[string]metric
	bad      violations
	ops      uint64
	clientFx uint64 // failed client operations
	firstErr string
	tr       *tracer
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: read-large, write-skew, xact-scan or restart")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 50, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		corruptF = flag.String("corrupt", "", "corrupt one pair before the checks (value or key); the run must then fail")
		workdir  = flag.String("workdir", ".bench_build/run", "scratch directory for tree directories and span output")
	)
	flag.Parse()
	s, ok := specByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &runner{
		s:       &s,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		corrupt: *corruptF,
		work:    filepath.Join(*workdir, fmt.Sprintf("%s-%d", s.name, os.Getpid())),
		metrics: map[string]metric{},
	}
	if err := r.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	failed := r.clientFx + r.bad.n
	if r.firstErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", r.firstErr)
	}
	if r.bad.first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first check violation:", r.bad.first)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, max(r.ops, 1), failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if failed > 0 {
		os.Exit(1)
	}
}

func (r *runner) run() error {
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.work)
	host, err := json.Marshal(map[string]any{"host": fingerprint(r.work)})
	if err != nil {
		return err
	}
	fmt.Println(string(host))
	if r.traced {
		r.tr = newTracer(r)
	}
	if r.s.restart {
		err = r.runRestart()
	} else {
		err = r.runStandard()
	}
	if err != nil {
		return err
	}
	if r.tr != nil {
		return r.tr.finish()
	}
	return nil
}

func (r *runner) dir(name string) string { return filepath.Join(r.work, name) }

func (r *runner) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// e2e reports an end-to-end metric; a traced run prints only the
// per-layer ones.
func (r *runner) e2e(name string, v float64, unit string) {
	if !r.traced {
		r.set(name, v, unit)
	}
}

func (r *runner) options() []repro.Option {
	opts := []repro.Option{repro.WithShards(r.s.shards)}
	if r.traced {
		opts = append(opts, repro.WithObservability(""))
	}
	if r.s.durable {
		opts = append(opts, repro.WithDurability(r.s.dur))
	}
	return opts
}

func (r *runner) newTree(dir string) (*repro.Tree, error) {
	if r.s.durable {
		return repro.Open(dir, kind, r.options()...)
	}
	return repro.NewTree(kind, r.options()...), nil
}

// checkpoint seals a checkpoint of t, recording the call in a traced run.
func (r *runner) checkpoint(t *repro.Tree) error {
	start := nanotime()
	err := t.Checkpoint()
	if r.tr != nil {
		r.tr.call("Tree.Checkpoint", start, nanotime())
	}
	return err
}

// closeTree closes t and reports a write-ahead-log failure as an error.
func closeTree(t *repro.Tree) error {
	t.Close()
	if l := t.Durable(); l != nil {
		if err := l.Err(); err != nil {
			return fmt.Errorf("closing the write-ahead log: %w", err)
		}
	}
	return nil
}

// initialState draws the workload's starting keys from the seed: every
// account, and each other key of the universe with probability 1/2. It
// returns the presence of each key and a shuffled insertion order.
func (r *runner) initialState() ([]bool, []kv) {
	rng := rand.New(rand.NewSource(r.seed))
	present := make([]bool, r.s.universe)
	var pairs []kv
	for k := range r.s.universe {
		switch {
		case k < r.s.accounts:
			present[k] = true
			pairs = append(pairs, kv{k, initBalance})
		case rng.Intn(2) == 0:
			present[k] = true
			pairs = append(pairs, kv{k, value(k)})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return present, pairs
}

func load(t *repro.Tree, pairs []kv, bad *violations) {
	h := t.NewHandle()
	for _, p := range pairs {
		if !h.Insert(p.k, p.v) {
			bad.add("fill: Insert(%d) found the key present", p.k)
		}
	}
}

func (r *runner) newClients(t *repro.Tree, m *model, stream int) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		g := newGen(r.s, r.seed, stream*clients+i, t.SameShard)
		cs[i] = newClient(i, r.s, t, g, m.nets[i])
	}
	return cs
}

// runStandard measures read-large, write-skew and xact-scan: set up the
// tree several times, run one closed-loop window on the last one, check
// it, then time the tree's reopen (durable) or reload (in memory).
func (r *runner) runStandard() error {
	present, pairs := r.initialState()
	var t *repro.Tree
	var setups, heaps, shares []float64
	var dir string
	for i := 0; moreReps(setups); i++ {
		if t != nil {
			if err := closeTree(t); err != nil {
				return err
			}
			t = nil // unreferenced, so the base reading below excludes it
			os.RemoveAll(dir)
		}
		dir = r.dir(fmt.Sprintf("setup%d", i))
		base := liveHeap()
		start := time.Now()
		var err error
		if t, err = r.newTree(dir); err != nil {
			return err
		}
		load(t, pairs, &r.bad)
		setups = append(setups, time.Since(start).Seconds())
		heap := liveHeap()
		heaps = append(heaps, float64(heap))
		shares = append(shares, float64(heap-min(heap, base)))
	}
	r.e2e("setup_s", median(setups), "s")
	r.e2e("heap_mb", median(heaps)/(1<<20), "MB")
	if !r.s.durable {
		r.e2e("space_amp", median(shares)/float64(16*len(pairs)), "ratio")
	}

	m := newModel(r.s, present)
	cs := r.newClients(t, m, 0)
	var eps []epoch
	if r.tr != nil {
		eps = r.tr.windows(t, cs, r.seconds)
		r.set("heap.end_mb", float64(liveHeap())/(1<<20), "MB")
	} else {
		eps = window(cs, r.seconds)
	}
	r.report(cs, eps)

	h := t.NewHandle()
	if r.corrupt != "" {
		if err := corrupt(h, r.corrupt); err != nil {
			return err
		}
	}
	final := m.check(h, &r.bad)
	var recov []float64
	if r.s.durable {
		// A planned shutdown: checkpoint, then close. The reopens then
		// load a checkpoint chain rather than a WAL tail whose length
		// depends on when the last periodic checkpoint happened to run.
		if err := r.checkpoint(t); err != nil {
			return err
		}
		if err := closeTree(t); err != nil {
			return err
		}
		for i := range durableReopens {
			d, err := r.reopen(dir, final, i == 0)
			if err != nil {
				return err
			}
			recov = append(recov, d)
		}
	} else {
		if err := closeTree(t); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(r.seed))
		shuffled := append([]kv(nil), final...)
		for moreReps(recov) {
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			start := time.Now()
			t2 := repro.NewTree(kind, r.options()...)
			load(t2, shuffled, &r.bad)
			recov = append(recov, time.Since(start).Seconds())
			if n := t2.NewHandle().Len(); n != len(final) {
				r.bad.add("reload holds %d pairs, want %d", n, len(final))
			}
			t2.Close()
		}
	}
	r.e2e("recovery_s", median(recov), "s")
	if r.tr != nil {
		return r.tr.ladder(pairs)
	}
	return nil
}

// open restores a copy of the closed directory pristine and times
// repro.Open on it: the restart a user waits for.
func (r *runner) open(pristine string) (*repro.Tree, float64, error) {
	work := r.dir("work")
	if r.tr != nil {
		if err := r.tr.durableOpen(pristine, work); err != nil {
			return nil, 0, err
		}
	}
	if err := copyDir(pristine, work); err != nil {
		return nil, 0, err
	}
	start := nanotime()
	t, err := repro.Open(work, kind, r.options()...)
	end := nanotime()
	if err != nil {
		return nil, 0, err
	}
	d := float64(end-start) / 1e9
	if r.tr != nil {
		r.tr.call("repro.Open", start, end)
		r.tr.openS = append(r.tr.openS, d)
	}
	return t, d, nil
}

// reopen times a restart of the closed directory and requires the
// recovered state to equal want. With space set it reports space_amp: the
// restarted directory's bytes, which Open compacts to one full base.
func (r *runner) reopen(pristine string, want []kv, space bool) (float64, error) {
	t, d, err := r.open(pristine)
	if err != nil {
		return 0, err
	}
	checkEqual(t.NewHandle(), want, &r.bad)
	if err := closeTree(t); err != nil {
		return 0, err
	}
	if space {
		bytes, err := dirBytes(t.Durable().Dir())
		if err != nil {
			return 0, err
		}
		r.e2e("space_amp", float64(bytes)/float64(16*max(len(want), 1)), "ratio")
	}
	return d, nil
}

// runRestart measures the restart workload: a single loader builds the
// directory (the set-up), then each repetition restores its pristine copy,
// times repro.Open, checks the recovered state exactly, and serves a short
// closed-loop window on the recovered tree.
func (r *runner) runRestart() error {
	var setups []float64
	var want []kv
	var pristine string
	for i := 0; moreReps(setups); i++ {
		if pristine != "" {
			os.RemoveAll(pristine)
		}
		pristine = r.dir(fmt.Sprintf("setup%d", i))
		start := time.Now()
		var err error
		if want, err = r.buildRestartDir(pristine); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.e2e("setup_s", median(setups), "s")
	bytes, err := dirBytes(pristine)
	if err != nil {
		return err
	}
	r.e2e("space_amp", float64(bytes)/float64(16*len(want)), "ratio")

	var acc restartReps
	deadline := time.Now().Add(r.seconds)
	for rep := 0; rep < minRestarts || time.Now().Before(deadline); rep++ {
		if err := r.reopenAndServe(pristine, want, rep, &acc); err != nil {
			return err
		}
	}
	r.e2e("recovery_s", median(acc.recov), "s")
	r.e2e("heap_mb", median(acc.heaps)/(1<<20), "MB")
	if r.tr != nil {
		r.set("heap.end_mb", median(acc.endHeaps)/(1<<20), "MB")
	}
	r.report(acc.clients, acc.eps)
	if r.tr != nil {
		return r.tr.ladder(want)
	}
	return nil
}

// restartReps accumulates the restart workload's repetitions.
type restartReps struct {
	clients                []*client
	eps                    []epoch
	recov, heaps, endHeaps []float64
}

func (r *runner) reopenAndServe(pristine string, want []kv, rep int, acc *restartReps) error {
	t, d, err := r.open(pristine)
	if err != nil {
		return err
	}
	acc.recov = append(acc.recov, d)
	h := t.NewHandle()
	if r.corrupt != "" && rep == 0 {
		if err := corrupt(h, r.corrupt); err != nil {
			return err
		}
	}
	checkEqual(h, want, &r.bad)
	acc.heaps = append(acc.heaps, float64(liveHeap()))
	present := make([]bool, r.s.universe)
	for _, p := range want {
		present[p.k] = true
	}
	m := newModel(r.s, present)
	cs := r.newClients(t, m, rep)
	if r.tr != nil {
		acc.eps = append(acc.eps, r.tr.windows(t, cs, serveWindow)...)
		acc.endHeaps = append(acc.endHeaps, float64(liveHeap()))
	} else {
		acc.eps = append(acc.eps, window(cs, serveWindow)...)
	}
	m.check(h, &r.bad)
	for _, c := range cs {
		// Keep the counters, not the tree the handles point into.
		c.h, c.g, c.sameShard = nil, nil, nil
	}
	acc.clients = append(acc.clients, cs...)
	return closeTree(t)
}

// buildRestartDir is the restart workload's loader: one client loads
// restartLoad keys, checkpoints, then churns restartRounds rounds of
// restartChurn updates with a checkpoint after each but the last, and
// closes. Periodic checkpoints are off, so the directory depends only on
// the seed: a base, deltas and a WAL tail. It returns the final pairs.
func (r *runner) buildRestartDir(dir string) ([]kv, error) {
	t, err := r.newTree(dir)
	if err != nil {
		return nil, err
	}
	h := t.NewHandle()
	rng := rand.New(rand.NewSource(r.seed))
	present := make([]bool, r.s.universe)
	for _, k := range rng.Perm(int(r.s.universe))[:restartLoad] {
		present[k] = true
		if !h.Insert(uint64(k), value(uint64(k))) {
			r.bad.add("loader: Insert(%d) found the key present", k)
		}
	}
	if err := r.checkpoint(t); err != nil {
		return nil, err
	}
	for round := range restartRounds {
		for range restartChurn {
			k := uint64(rng.Int63n(int64(r.s.universe)))
			if rng.Intn(2) == 0 {
				if h.Insert(k, value(k)) == present[k] {
					r.bad.add("loader: Insert(%d) disagrees with the model", k)
				}
				present[k] = true
			} else {
				if h.Delete(k) != present[k] {
					r.bad.add("loader: Delete(%d) disagrees with the model", k)
				}
				present[k] = false
			}
		}
		if round < restartRounds-1 {
			if err := r.checkpoint(t); err != nil {
				return nil, err
			}
		}
	}
	if err := closeTree(t); err != nil {
		return nil, err
	}
	var want []kv
	for k, ok := range present {
		if ok {
			want = append(want, kv{uint64(k), value(uint64(k))})
		}
	}
	return want, nil
}

// report turns the window's epochs into the end-to-end metrics, each the
// median over epochs, and collects the clients' failures.
func (r *runner) report(cs []*client, eps []epoch) {
	for _, c := range cs {
		r.ops += c.ops
		r.clientFx += c.failed
		if r.firstErr == "" {
			r.firstErr = c.firstErr
		}
	}
	var tput []float64
	var q [numKinds][2][]float64
	for i := range eps {
		e := &eps[i]
		tput = append(tput, float64(e.ops)/e.dur.Seconds())
		for k := range e.lat {
			q[k][0] = append(q[k][0], e.lat[k].quantile(0.50)/1e3)
			q[k][1] = append(q[k][1], e.lat[k].quantile(0.99)/1e3)
		}
	}
	r.e2e("throughput_ops_s", median(tput), "1/s")
	for k := range q {
		r.e2e(kindNames[k]+"_p50_us", median(q[k][0]), "us")
		r.e2e(kindNames[k]+"_p99_us", median(q[k][1]), "us")
	}
}

// moreReps reports whether to repeat a timed set-up or reload once more:
// at least minReps times, and cheap ones until repBudget seconds are spent.
func moreReps(secs []float64) bool {
	spent := 0.0
	for _, s := range secs {
		spent += s
	}
	return len(secs) < minReps || (len(secs) < maxReps && spent < repBudget)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeap forces a collection and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
