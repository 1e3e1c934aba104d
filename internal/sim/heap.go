package sim

// Hand-rolled 4-ary min-heap over slab slots, keyed on the firing key
// (at, schedAt, cause, seq). Compared with container/heap this removes the
// interface boxing, the virtual Less/Swap calls and one pointer indirection
// per element; the higher arity halves tree depth, trading slightly more
// comparisons per level for far fewer cache-missing moves. Each heap entry
// carries its slot's instant inline next to the slot index, so a sift
// compares `at` without touching the slab and reads the slab's causal keys
// only on an `at` tie. Sifts move a hole instead of swapping and write
// nothing to the slab: cancellation is lazy (see Cancel), so a slot only
// needs to know whether it is queued, not where.

// heapEntry is one heap element: the slot's firing instant, copied at push
// so the common comparison stays inside the heap array, and the slot index.
type heapEntry struct {
	at   Time
	slot int32
}

// eventLess orders entries by scheduled instant, then by the causal key
// (schedule instant, causing event's schedule instant), then insertion
// sequence. Within one scheduler the causal components are monotone in seq,
// so the order is identical to the historical (at, seq); they exist so that
// cross-shard deliveries injected with sender-side keys (ScheduleKeyedArg)
// sort against local events the way a single-scheduler run would order
// them. The key is total and unique, so firing order is independent of
// heap shape — the determinism guarantee does not rest on heap stability.
func (s *Scheduler) eventLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	sa, sb := &s.slab[a.slot], &s.slab[b.slot]
	if sa.schedAt != sb.schedAt {
		return sa.schedAt < sb.schedAt
	}
	if sa.cause != sb.cause {
		return sa.cause < sb.cause
	}
	return sa.seq < sb.seq
}

// heapPush appends slot i and restores the heap invariant.
func (s *Scheduler) heapPush(i int32) {
	sl := &s.slab[i]
	sl.queued = true
	s.heap = append(s.heap, heapEntry{at: sl.at, slot: i})
	s.siftUp(len(s.heap) - 1)
}

// heapPopTop removes the minimum element (the caller has already read it
// from s.heap[0]) and restores the heap invariant.
func (s *Scheduler) heapPopTop() {
	h := s.heap
	n := len(h) - 1
	s.slab[h[0].slot].queued = false
	if n > 0 {
		h[0] = h[n]
	}
	s.heap = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

func (s *Scheduler) siftUp(j int) {
	h := s.heap
	e := h[j]
	for j > 0 {
		p := (j - 1) >> 2
		if !s.eventLess(e, h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = e
}

func (s *Scheduler) siftDown(j int) {
	h := s.heap
	n := len(h)
	e := h[j]
	for {
		c := j<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for k := c + 1; k < end; k++ {
			if s.eventLess(h[k], h[m]) {
				m = k
			}
		}
		if !s.eventLess(h[m], e) {
			break
		}
		h[j] = h[m]
		j = m
	}
	h[j] = e
}
