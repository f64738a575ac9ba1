package obs

import "sync/atomic"

// ringWords is the payload width of one seqRing slot: a span fills all six
// words, a flight-recorder event five.
const ringWords = 6

// ringSlot holds one record in atomic words guarded by a per-slot seqlock
// version (odd while a writer owns the slot). Every field is atomic, so
// reads racing a wraparound write are race-detector-clean; the version
// makes the words mutually consistent.
type ringSlot struct {
	ver atomic.Uint64
	w   [ringWords]atomic.Uint64
}

// seqRing is the bounded lock-free ring behind FlightRecorder and Tracer.
// put claims the next slot with a global sequence counter and publishes
// under the slot's seqlock; when the ring wraps, the oldest records are
// overwritten. Word 0 of a record must be non-zero: a zero word 0 marks a
// slot never written.
type seqRing struct {
	seq   atomic.Uint64
	slots []ringSlot
}

// newSeqRing returns a ring of size slots, rounded up to a power of two no
// smaller than minSize (itself a power of two).
func newSeqRing(size, minSize int) seqRing {
	n := minSize
	for n < size {
		n <<= 1
	}
	return seqRing{slots: make([]ringSlot, n)}
}

// put publishes one record, allocation-free and safe from any goroutine.
// If a writer that lapped this one holds the slot, the record is dropped
// rather than spun on — the ring is diagnostics, not a ledger — and put
// reports false.
func (r *seqRing) put(w [ringWords]uint64) bool {
	i := r.seq.Add(1) - 1
	s := &r.slots[i&uint64(len(r.slots)-1)]
	v := s.ver.Load()
	if v&1 == 1 || !s.ver.CompareAndSwap(v, v+1) {
		return false
	}
	for j := range w {
		s.w[j].Store(w[j])
	}
	s.ver.Add(1)
	return true
}

// held reports how many slots have been claimed and not yet overwritten.
func (r *seqRing) held() int {
	return int(min(r.seq.Load(), uint64(len(r.slots))))
}

// each calls fn with every record in the ring, oldest first. A slot being
// rewritten concurrently is retried a few times and then skipped rather
// than returned torn.
func (r *seqRing) each(fn func(w [ringWords]uint64)) {
	end := r.seq.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	for i := start; i < end; i++ {
		s := &r.slots[i&(n-1)]
		for tries := 0; tries < 4; tries++ {
			v1 := s.ver.Load()
			if v1&1 == 1 {
				continue
			}
			var w [ringWords]uint64
			for j := range w {
				w[j] = s.w[j].Load()
			}
			if s.ver.Load() != v1 {
				continue
			}
			if w[0] != 0 {
				fn(w)
			}
			break
		}
	}
}
