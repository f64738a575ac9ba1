package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// EventKind names a flight-recorder event. The A/B payloads are
// kind-specific (documented per constant); Dur is a duration in
// nanoseconds where the event has one.
type EventKind uint8

const (
	// EvCheckpointFull: a full checkpoint generation. A=bytes, B=pairs.
	EvCheckpointFull EventKind = iota
	// EvCheckpointDelta: a delta checkpoint generation. A=bytes, B=pairs.
	EvCheckpointDelta
	// EvCompaction: a delta-chain compaction back to a full base. A=bytes.
	EvCompaction
	// EvRecovery: a recovery pass. A=pairs applied, B=WAL records replayed.
	EvRecovery
	// EvWALStall: an appender blocked on the unsynced-bytes bound.
	// A=unsynced bytes at entry; Dur is the stall.
	EvWALStall
	// EvWALDrop: a WAL append dropped (closed or over hard bound). A=bytes.
	EvWALDrop
	// EvWALRotate: the WAL sealed a segment. A=segment bytes.
	EvWALRotate
	// EvBatch: the combiner applied a coalesced batch. A=batch size.
	EvBatch
	// EvMaintDrain: a maintenance hint-drain burst. A=hints consumed,
	// B=repairs performed.
	EvMaintDrain
	// EvMaintSweep: a fallback maintenance sweep. A=repairs performed.
	EvMaintSweep
	// EvFtxPrepare: a slow cross-shard prepare phase (recorded only above a
	// duration threshold so the ring isn't flooded). A=participating shards,
	// B=1 if the phase failed and unwound; Dur is the phase duration.
	EvFtxPrepare
	// EvFtxAbort: a cross-shard transaction aborting after repeated retries
	// (recorded only above a retry threshold). A=participating shards,
	// B=abort cause (0 intent conflict, 1 prepare failure); Dur is unused.
	EvFtxAbort
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"checkpoint.full", "checkpoint.delta", "compaction", "recovery",
	"wal.stall", "wal.drop", "wal.rotate", "batch", "maint.drain",
	"maint.sweep", "ftx.prepare", "ftx.abort",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one recorded occurrence. Plain data only — recording one never
// allocates.
type Event struct {
	At   int64     `json:"at"` // unix nanoseconds
	Kind EventKind `json:"kind"`
	Dur  int64     `json:"dur_ns"`
	A    int64     `json:"a"`
	B    int64     `json:"b"`
}

// FlightRecorder is a bounded lock-free ring of recent notable events
// (a seqRing: global sequence, per-slot seqlock, oldest overwritten on
// wrap). Dump it on demand (Events/WriteTo, or the HTTP endpoint's
// /flight) or on panic (DumpOnPanic).
type FlightRecorder struct {
	ring  seqRing
	dumpW io.Writer // destination for DumpOnPanic; os.Stderr when nil
}

// NewFlightRecorder returns a recorder keeping the most recent `size`
// events (rounded up to a power of two, minimum 16).
func NewFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: newSeqRing(size, 16)}
}

// Record appends an event. Allocation-free and safe from any goroutine. A
// nil recorder ignores the call, so layers can hold an optional recorder
// behind one nil check.
func (f *FlightRecorder) Record(kind EventKind, dur time.Duration, a, b int64) {
	if f == nil {
		return
	}
	f.ring.put([ringWords]uint64{uint64(time.Now().UnixNano()), uint64(kind), uint64(dur), uint64(a), uint64(b)})
}

// Events returns the recorded events, oldest first. Events being written
// concurrently are skipped rather than torn.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	out := make([]Event, 0, f.ring.held())
	f.ring.each(func(w [ringWords]uint64) {
		out = append(out, Event{At: int64(w[0]), Kind: EventKind(w[1]), Dur: int64(w[2]),
			A: int64(w[3]), B: int64(w[4])})
	})
	return out
}

// WriteTo dumps the recorded events as human-readable lines, oldest first.
func (f *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, ev := range f.Events() {
		n, err := fmt.Fprintf(w, "%s %-16s dur=%-12s a=%-8d b=%d\n",
			time.Unix(0, ev.At).UTC().Format("15:04:05.000000"),
			ev.Kind, time.Duration(ev.Dur), ev.A, ev.B)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SetDumpWriter redirects DumpOnPanic output (default os.Stderr).
func (f *FlightRecorder) SetDumpWriter(w io.Writer) { f.dumpW = w }

// DumpOnPanic is meant to be deferred at the top of a worker or main: if
// the goroutine is panicking it dumps the flight recorder to the dump
// writer and re-raises the panic unchanged.
func (f *FlightRecorder) DumpOnPanic() {
	r := recover()
	if r == nil {
		return
	}
	if f != nil {
		w := f.dumpW
		if w == nil {
			w = os.Stderr
		}
		fmt.Fprintf(w, "-- flight recorder (%d events) --\n", len(f.Events()))
		f.WriteTo(w)
	}
	panic(r)
}
