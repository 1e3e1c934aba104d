package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// --- edge cases the zero-allocation kernel must preserve ---

func TestCancelInsideCallback(t *testing.T) {
	// The first event at t=100 cancels both a same-instant event queued
	// behind it and a later event; neither may fire.
	s := NewScheduler()
	var idSame, idLater EventID
	var same, later bool
	s.At(100, func() {
		s.Cancel(idSame)
		s.Cancel(idLater)
	})
	idSame = s.At(100, func() { same = true })
	idLater = s.At(200, func() { later = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if same || later {
		t.Fatalf("events cancelled from inside a callback fired: same=%v later=%v", same, later)
	}
	if !s.Drained() {
		t.Fatal("cancelled events left the scheduler undrained")
	}
}

func TestCancelAlreadyFired(t *testing.T) {
	s := NewScheduler()
	fired := 0
	id := s.At(10, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	s.Cancel(id) // no-op: already fired
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	// The fired slot has been recycled; a new event may occupy it. The
	// stale handle must not be able to kill the new tenant.
	fresh := false
	s.At(20, func() { fresh = true })
	s.Cancel(id)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fresh {
		t.Fatal("stale EventID cancelled a recycled slot's new event")
	}
}

func TestCancelZeroEventID(t *testing.T) {
	s := NewScheduler()
	s.Cancel(EventID{}) // must be a safe no-op
	if (EventID{}).Valid() {
		t.Fatal("zero EventID reports valid")
	}
	id := s.At(1, func() {})
	if !id.Valid() {
		t.Fatal("issued EventID reports invalid")
	}
}

func TestTickerStopInsideOwnTickThenSlotReuse(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick *Ticker
	tick, err := s.Every(0, 10*time.Nanosecond, func() {
		count++
		if count == 2 {
			tick.Stop()
			tick.Stop() // double stop from inside the tick is safe
		}
	})
	if err != nil {
		t.Fatalf("every: %v", err)
	}
	// Events that outlive the ticker must be unaffected by its slot being
	// recycled underneath them.
	survived := false
	s.At(1000, func() { survived = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 2 {
		t.Fatalf("ticker fired %d times after in-tick stop, want 2", count)
	}
	if !survived {
		t.Fatal("unrelated event lost")
	}
	if !s.Drained() {
		t.Fatal("scheduler not drained after run")
	}
}

func TestTickerSlotReuseKeepsFIFOWithCallbackEvents(t *testing.T) {
	// A ticker's next tick is rescheduled after its callback runs, so an
	// event the callback schedules for exactly one period ahead must fire
	// before the next tick (it received the smaller sequence number). This
	// pins the old callback-driven ticker's ordering.
	s := NewScheduler()
	var order []string
	ticks := 0
	tick, err := s.Every(10, 10*time.Nanosecond, func() {
		ticks++
		order = append(order, "tick")
		if ticks == 1 {
			s.After(10*time.Nanosecond, func() { order = append(order, "cb") })
		}
		if ticks == 3 {
			order = append(order, "stop")
		}
	})
	if err != nil {
		t.Fatalf("every: %v", err)
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatalf("run: %v", err)
	}
	tick.Stop()
	want := []string{"tick", "cb", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInterleavedSameInstantFIFOWithCancels(t *testing.T) {
	s := NewScheduler()
	var got []int
	ids := make([]EventID, 12)
	for i := 0; i < 12; i++ {
		i := i
		ids[i] = s.At(77, func() { got = append(got, i) })
	}
	// Cancel a prefix-interleaved subset, including the first and last.
	for _, i := range []int{0, 3, 4, 7, 11} {
		s.Cancel(ids[i])
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 5, 6, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPastClampDiagnostics(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {
		s.At(10, func() {}) // in the past: clamped and counted
		s.At(100, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := s.PastClamps(); got != 1 {
		t.Fatalf("PastClamps() = %d, want 1", got)
	}
	d := s.Diag()
	if d.PastClamps != 1 || d.Pending != 0 || d.Processed != 3 {
		t.Fatalf("Diag() = %+v", d)
	}
	if !s.Drained() {
		t.Fatal("Drained() = false after full run")
	}
}

func TestAtArgDeliversArgument(t *testing.T) {
	s := NewScheduler()
	type payload struct{ v int }
	p := &payload{v: 41}
	var got *payload
	s.AtArg(10, func(a any) { got = a.(*payload) }, p)
	cancelled := s.AfterArg(20*time.Nanosecond, func(a any) { t.Fatal("cancelled AfterArg fired") }, p)
	s.Cancel(cancelled)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != p {
		t.Fatalf("AtArg delivered %v, want %v", got, p)
	}
}

func TestWhenReportsPendingInstant(t *testing.T) {
	s := NewScheduler()
	id := s.At(123, func() {})
	if at, ok := s.When(id); !ok || at != 123 {
		t.Fatalf("When = %v,%v want 123,true", at, ok)
	}
	s.Cancel(id)
	if _, ok := s.When(id); ok {
		t.Fatal("When reported a cancelled event as pending")
	}
	if _, ok := s.When(EventID{}); ok {
		t.Fatal("When accepted the zero EventID")
	}
}

// --- allocation discipline ---

func TestSteadyStateScheduleIsAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the slab.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.After(10*time.Nanosecond, fn)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		id := s.After(10*time.Nanosecond, fn)
		s.Cancel(id)
		s.RunFor(20 * time.Nanosecond)
	}); allocs != 0 {
		t.Fatalf("steady-state schedule+cancel allocates %.1f per op, want 0", allocs)
	}
}

func TestTickerTickIsAllocFree(t *testing.T) {
	s := NewScheduler()
	n := 0
	_, err := s.Every(0, 10*time.Nanosecond, func() { n++ })
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(100 * time.Nanosecond) // warm up
	if allocs := testing.AllocsPerRun(100, func() {
		s.RunFor(1000 * time.Nanosecond) // 100 ticks
	}); allocs != 0 {
		t.Fatalf("ticker steady state allocates %.1f per 100 ticks, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}

// --- randomized differential test against a container/heap reference ---

// refEvent / refQueue reimplement the original container/heap-based
// scheduler semantics as the oracle, over the full firing key
// (at, schedAt, cause, seq).
type refEvent struct {
	at      Time
	schedAt Time
	cause   Time
	seq     uint64
	index   int
	fn      func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.cause != b.cause {
		return a.cause < b.cause
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refScheduler struct {
	now   Time
	seq   uint64
	queue refQueue
}

// at schedules from outside any callback, where the kernel stamps both
// causal keys with the current instant.
func (r *refScheduler) at(t Time, fn func()) *refEvent {
	return r.keyed(t, r.now, r.now, fn)
}

func (r *refScheduler) keyed(t, schedAt, cause Time, fn func()) *refEvent {
	if t < r.now {
		t = r.now
	}
	e := &refEvent{at: t, schedAt: schedAt, cause: cause, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.queue, e)
	return e
}

func (r *refScheduler) cancel(e *refEvent) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&r.queue, e.index)
	e.index = -1
}

func (r *refScheduler) run() {
	for len(r.queue) > 0 {
		e := heap.Pop(&r.queue).(*refEvent)
		e.index = -1
		r.now = e.at
		e.fn()
	}
}

// runDifferential drives both schedulers through the same randomized
// schedule/cancel script and compares complete firing traces. A share of
// the events go through ScheduleKeyedArg on a coarse grid of instants and
// causal keys, so many of them tie on `at` with each other and with plain
// At events and are ordered by the slab's (schedAt, cause, seq) tie-break.
func runDifferential(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	type rec struct {
		id int
		at Time
	}
	var gotNew, gotRef []rec

	s := NewScheduler()
	r := &refScheduler{}
	newIDs := make([]EventID, 0, ops)
	refEvs := make([]*refEvent, 0, ops)

	next := 0
	for i := 0; i < ops; i++ {
		switch {
		case len(newIDs) > 0 && rng.Intn(3) == 0: // cancel a random event
			k := rng.Intn(len(newIDs))
			s.Cancel(newIDs[k])
			r.cancel(refEvs[k])
		case rng.Intn(3) == 0: // keyed event tying on a coarse grid
			at := Time(rng.Intn(10)) * 100
			schedAt := Time(rng.Intn(4)) * 100
			cause := schedAt - Time(rng.Intn(3))*50
			id := next
			next++
			rf := func(any) { gotNew = append(gotNew, rec{id: id, at: s.Now()}) }
			newIDs = append(newIDs, s.ScheduleKeyedArg(at, schedAt, cause, rf, nil))
			refEvs = append(refEvs, r.keyed(at, schedAt, cause, func() { gotRef = append(gotRef, rec{id: id, at: r.now}) }))
		default:
			at := Time(rng.Intn(1000))
			id := next
			next++
			newIDs = append(newIDs, s.At(at, func() { gotNew = append(gotNew, rec{id: id, at: s.Now()}) }))
			refEvs = append(refEvs, r.at(at, func() { gotRef = append(gotRef, rec{id: id, at: r.now}) }))
		}
		// Occasionally drain part of the timeline mid-script.
		if rng.Intn(16) == 0 {
			target := s.Now() + Time(rng.Intn(500))
			if err := s.RunUntil(target); err != nil {
				t.Fatal(err)
			}
			for len(r.queue) > 0 && r.queue[0].at <= target {
				e := heap.Pop(&r.queue).(*refEvent)
				e.index = -1
				r.now = e.at
				e.fn()
			}
			if r.now < s.Now() {
				r.now = s.Now()
			}
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r.run()

	if len(gotNew) != len(gotRef) {
		t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			t.Fatalf("seed %d: divergence at event %d: kernel %+v, reference %+v",
				seed, i, gotNew[i], gotRef[i])
		}
	}
}

func TestSchedulerMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		runDifferential(t, seed, 400)
	}
}

func FuzzSchedulerVsReferenceModel(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(42), uint16(1000))
	f.Add(int64(-7), uint16(317))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runDifferential(t, seed, int(ops%2048))
	})
}
