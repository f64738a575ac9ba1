package durable

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestLogAppendDuringBlockedFsync: Sync's fsync runs outside the append
// lock, so an append completes while an fsync is stuck in the disk, and
// the Sync still makes everything appended before it durable.
func TestLogAppendDuringBlockedFsync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1, Options{GroupCommit: -1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	l.fsync = func(f *os.File) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return f.Sync()
	}
	l.LogUpdate(0, 1, []Op{{Key: 1, Val: 10}})
	synced := make(chan error)
	go func() { synced <- l.Sync() }()
	<-entered
	appended := make(chan struct{})
	go func() {
		l.LogUpdate(0, 2, []Op{{Key: 2, Val: 20}})
		close(appended)
	}()
	select {
	case <-appended:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("append blocked behind an fsync")
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("%d syncs counted, want 1", st.Syncs)
	}
	l.Close()
	rec, l2 := reopen(t, dir, 1)
	defer l2.Close()
	if want := map[uint64]uint64{1: 10, 2: 20}; !reflect.DeepEqual(rec.State, want) {
		t.Fatalf("recovered %v, want %v", rec.State, want)
	}
}

// lockedSource is a Source whose shards the stress writers update
// concurrently: each shard's state, clock and log append change under the
// shard's lock, so a snapshot at a shard's clock holds exactly the
// transactions at or below it, all already appended.
type lockedSource struct {
	mu    []sync.Mutex
	state []map[uint64]uint64
	seq   []uint64
}

func newLockedSource(shards int) *lockedSource {
	s := &lockedSource{mu: make([]sync.Mutex, shards), state: make([]map[uint64]uint64, shards), seq: make([]uint64, shards)}
	for i := range s.state {
		s.state[i] = make(map[uint64]uint64)
	}
	return s
}

func (s *lockedSource) Shards() int { return len(s.state) }

func (s *lockedSource) SnapshotShard(si int, fn func(k, v uint64)) uint64 {
	s.mu[si].Lock()
	defer s.mu[si].Unlock()
	for k, v := range s.state[si] {
		fn(k, v)
	}
	return s.seq[si]
}

func (s *lockedSource) SnapshotShardKeys(si int, keys []uint64, fn func(k, v uint64, ok bool)) uint64 {
	s.mu[si].Lock()
	defer s.mu[si].Unlock()
	for _, k := range keys {
		v, ok := s.state[si][k]
		fn(k, v, ok)
	}
	return s.seq[si]
}

func (s *lockedSource) apply(l *Log, si int, op Op) {
	s.mu[si].Lock()
	defer s.mu[si].Unlock()
	if op.Del {
		delete(s.state[si], op.Key)
	} else {
		s.state[si][op.Key] = op.Val
	}
	s.seq[si]++
	l.LogUpdate(si, s.seq[si], []Op{op})
}

// TestLogConcurrentStress drives appends on every shard, explicit Syncs,
// delta and full checkpoints and the group committer at once, then Closes
// the log while Sync and Checkpoint are still looping. Run it under -race:
// the recovered state must equal the model.
func TestLogConcurrentStress(t *testing.T) {
	const shards, perWriter = 4, 3000
	dir := t.TempDir()
	l, _, err := Open(dir, shards, Options{GroupCommit: time.Millisecond, CheckpointEvery: -1, MaxUnsynced: 4096})
	if err != nil {
		t.Fatal(err)
	}
	src := newLockedSource(shards)
	var writers, loops sync.WaitGroup
	for si := 0; si < shards; si++ {
		writers.Add(1)
		go func(si int) {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				k := uint64(si + shards*(i%257))
				src.apply(l, si, Op{Key: k, Val: uint64(i), Del: i%5 == 4})
			}
		}(si)
	}
	loop := func(fn func() error) {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				if err := fn(); errors.Is(err, errClosed) {
					return
				} else if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	loop(l.Sync)
	loop(func() error { return l.Checkpoint(src) })
	writers.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	loops.Wait()
	if l.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoint ran during the stress")
	}
	rec, l2 := reopen(t, dir, shards)
	defer l2.Close()
	want := make(map[uint64]uint64)
	for _, m := range src.state {
		for k, v := range m {
			want[k] = v
		}
	}
	if !reflect.DeepEqual(rec.State, want) {
		t.Fatalf("recovered %d pairs, model %d", len(rec.State), len(want))
	}
}

// TestLogSyncCountsOnlyDirtyFsyncs: a sync with nothing appended since
// the previous one issues no fsync, whichever path made the previous one
// (the out-of-lock Sync, or the in-lock fsync of Options.Sync).
func TestLogSyncCountsOnlyDirtyFsyncs(t *testing.T) {
	for _, o := range []Options{{GroupCommit: -1, CheckpointEvery: -1}, {Sync: true, CheckpointEvery: -1}} {
		l, _, err := Open(t.TempDir(), 1, o)
		if err != nil {
			t.Fatal(err)
		}
		l.LogUpdate(0, 1, []Op{{Key: 1, Val: 1}}) // fsynced inline under Options.Sync
		if !o.Sync {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		before := l.Stats().Syncs
		for i := 0; i < 3; i++ {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if st := l.Stats(); st.Syncs != before {
			t.Fatalf("Sync=%v: 3 idle syncs issued %d fsyncs", o.Sync, st.Syncs-before)
		}
		l.Close()
	}
}
