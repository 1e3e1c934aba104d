package sim

// Snapshotter is the contract every stateful simulation component
// implements for the copy-on-fork warm-start engine: Snapshot captures the
// component's mutable state as an opaque value, Restore rewinds the SAME
// component instance to that state in place. Restoring in place (rather
// than rebuilding a copy) is what keeps closures already queued in the
// scheduler valid across a fork: they capture component pointers, and those
// pointers keep pointing at correctly-rewound state. A snapshot may be
// restored any number of times; each Restore must leave the component
// bit-identical to the moment the snapshot was taken. See DESIGN.md,
// "Warm-state snapshots".
type Snapshotter interface {
	Snapshot() any
	Restore(snap any)
}

// Cloner is implemented by scheduled-event args that are mutated or
// recycled after they fire (pooled frames, egress jobs). The scheduler
// deep-copies such args once when a snapshot is taken — preserving a
// pristine copy the continuing run can no longer corrupt — and again on
// every Restore, so each fork consumes its own private copy.
type Cloner interface {
	CloneForSnapshot() any
}

// SchedulerSnapshot is the scheduler's full queue state: the event slab
// (including re-arm descriptors for tickers: at/seq/period per slot, not
// closures re-captured per fork), the heap order, the free list and the
// counters. Slots referencing Cloner args hold pristine deep copies.
type SchedulerSnapshot struct {
	now                            Time
	seq                            uint64
	deferOrd                       uint64
	slab                           []eventSlot
	heap                           []heapEntry
	freeHead                       int32
	live                           int
	processed, pastClamps, cancels uint64
}

// Snapshot implements Snapshotter. Event callbacks are captured by
// reference: a queued callback is snapshot-safe iff it captures only
// components restored in place or values never mutated after scheduling —
// anything else must go through an AtArg descriptor implementing Cloner
// (see netsim's frame and egress-job descriptors).
func (s *Scheduler) Snapshot() any {
	sn := &SchedulerSnapshot{
		now:        s.now,
		seq:        s.seq,
		deferOrd:   s.deferOrd,
		slab:       append([]eventSlot(nil), s.slab...),
		heap:       append([]heapEntry(nil), s.heap...),
		freeHead:   s.freeHead,
		live:       s.live,
		processed:  s.processed,
		pastClamps: s.pastClamps,
		cancels:    s.cancels,
	}
	for i := range sn.slab {
		if c, ok := sn.slab[i].arg.(Cloner); ok {
			sn.slab[i].arg = c.CloneForSnapshot()
		}
	}
	return sn
}

// Restore implements Snapshotter: it rewinds the queue to the snapshot.
// Slot indices and generations are restored verbatim, so EventIDs and
// *Ticker handles issued before the snapshot become valid again even if
// the event fired or was cancelled in the meantime; handles issued after
// the snapshot go stale (their generations are rolled back or reassigned).
func (s *Scheduler) Restore(snap any) {
	sn := snap.(*SchedulerSnapshot)
	s.now = sn.now
	s.seq = sn.seq
	s.deferOrd = sn.deferOrd
	s.slab = append(s.slab[:0], sn.slab...)
	for i := range s.slab {
		if c, ok := s.slab[i].arg.(Cloner); ok {
			s.slab[i].arg = c.CloneForSnapshot()
		}
	}
	s.heap = append(s.heap[:0], sn.heap...)
	s.freeHead = sn.freeHead
	s.live = sn.live
	s.processed = sn.processed
	s.pastClamps = sn.pastClamps
	s.cancels = sn.cancels
	s.stopped = false
}
