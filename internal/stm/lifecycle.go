package stm

import (
	"time"

	"repro/internal/obs"
)

// The transaction-lifecycle engine: drives one operation (one
// Atomic/AtomicMode call) from its first attempt to its commit, consulting
// the domain's ContentionManager between attempts. It was extracted from the
// original Thread.AtomicMode retry loop so that the abort→retry path is a
// pluggable policy rather than a hard-coded backoff. The cycle is
// begin → run → (commit | abort → contention-manager stall → begin).
//
// lifecycle lives on the thread's stack for the duration of one AtomicMode
// call.
type lifecycle struct {
	th      *Thread
	mode    Mode
	fn      func(*Tx)
	retries int // aborted attempts so far
}

// run drives the operation to commit. On every abort it charges one retry to
// the thread's statistics and hands control to the contention manager, whose
// stall is the only wait in the loop. While the thread carries a sampled
// op's trace context, every attempt also records one SpanAttempt (A = -1
// for the committing attempt, otherwise the abort cause; B = the attempt
// index); otherwise tr is nil and the clock is never read. time.Now and
// Tracer.Record never allocate, keeping AllocsPerRun=0 on both paths.
func (lc *lifecycle) run() {
	th := lc.th
	tx := &th.tx
	cm := th.stm.cm
	tr, id, op := th.tr, th.traceID, th.traceOp
	if id == 0 {
		tr = nil
	}
	for {
		var start int64
		if tr != nil {
			start = time.Now().UnixNano()
		}
		tx.begin(lc.mode)
		ok := th.runAttempt(tx, lc.fn)
		if tr != nil {
			cause := int64(-1)
			if !ok {
				cause = int64(th.lastCause)
			}
			tr.Record(id, obs.SpanAttempt, op, start, time.Now().UnixNano(), cause, int64(lc.retries))
		}
		if ok {
			cm.OnCommit(th, lc.retries)
			return
		}
		lc.retries++
		th.noteRetry()
		cm.OnAbort(th, lc.retries)
	}
}
