package sim

import (
	"math"
	"math/rand"
	"testing"
)

// naiveEngine is an unpooled, obviously-correct reference: events live in
// a flat slice and fire in (at, seq) order, scanned linearly. It exists
// only to pin the pooled engine's semantics event-for-event.
type naiveEvent struct {
	at        float64
	seq       uint64
	fn        func()
	cancelled bool
}

type naiveEngine struct {
	now    float64
	seq    uint64
	events []*naiveEvent
}

func (n *naiveEngine) schedule(delay float64, fn func()) *naiveEvent {
	if delay < 0 {
		delay = 0
	}
	n.seq++
	ev := &naiveEvent{at: n.now + delay, seq: n.seq, fn: fn}
	n.events = append(n.events, ev)
	return ev
}

func (n *naiveEngine) runUntilIdle() {
	for {
		var next *naiveEvent
		for _, ev := range n.events {
			if ev.cancelled || ev.fn == nil {
				continue
			}
			if next == nil || ev.at < next.at || (ev.at == next.at && ev.seq < next.seq) {
				next = ev
			}
		}
		if next == nil {
			return
		}
		n.now = next.at
		fn := next.fn
		next.fn = nil
		fn()
	}
}

// storm drives one engine through a deterministic random script of
// schedule/cancel/fire decisions and records the firing order. The
// script depends only on the rng seed and the firing order itself, so
// two semantically equivalent engines driven with the same seed must
// produce identical traces.
type storm struct {
	rng      *rand.Rand
	fired    []int
	times    []float64
	nextID   int
	live     []int // granted, unfired, uncancelled ids in grant order
	sched    func(id int, delay float64)
	cancel   func(id int)
	maxSpawn int
}

func (s *storm) dropLive(id int) {
	for i, v := range s.live {
		if v == id {
			s.live = append(s.live[:i], s.live[i+1:]...)
			return
		}
	}
}

func (s *storm) grant(delay float64) {
	id := s.nextID
	s.nextID++
	s.live = append(s.live, id)
	s.sched(id, delay)
}

// handler is the body every scheduled timer runs: record, maybe spawn,
// maybe cancel. Delays are quantized so simultaneous events (the FIFO
// tie-break) occur constantly.
func (s *storm) handler(id int, now float64) {
	s.dropLive(id)
	s.fired = append(s.fired, id)
	s.times = append(s.times, now)
	if s.nextID < s.maxSpawn {
		for k := 1 + s.rng.Intn(3); k > 0; k-- {
			s.grant(float64(s.rng.Intn(8)) * 0.25)
		}
	}
	if len(s.live) > 0 && s.rng.Float64() < 0.35 {
		victim := s.live[s.rng.Intn(len(s.live))]
		s.dropLive(victim)
		s.cancel(victim)
	}
}

// TestPoolMatchesNaiveReference is the timer-pool property test: a
// cancel/reschedule/fire storm of thousands of timers must fire in
// exactly the order the unpooled reference fires them, event for event,
// at the same virtual times.
func TestPoolMatchesNaiveReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 12345} {
		var e Engine
		pooled := &storm{rng: rand.New(rand.NewSource(seed)), maxSpawn: 4000}
		refs := map[int]TimerRef{}
		pooled.sched = func(id int, delay float64) {
			refs[id] = e.Schedule(delay, func() { pooled.handler(id, e.Now()) })
		}
		pooled.cancel = func(id int) { refs[id].Cancel() }

		var n naiveEngine
		naive := &storm{rng: rand.New(rand.NewSource(seed)), maxSpawn: 4000}
		evs := map[int]*naiveEvent{}
		naive.sched = func(id int, delay float64) {
			evs[id] = n.schedule(delay, func() { naive.handler(id, n.now) })
		}
		naive.cancel = func(id int) { evs[id].cancelled = true }

		for i := 0; i < 50; i++ {
			pooled.grant(float64(i%10) * 0.5)
			naive.grant(float64(i%10) * 0.5)
		}
		e.RunUntilIdle()
		n.runUntilIdle()

		if len(pooled.fired) != len(naive.fired) {
			t.Fatalf("seed %d: pooled fired %d events, reference %d", seed, len(pooled.fired), len(naive.fired))
		}
		if len(pooled.fired) < 1000 {
			t.Fatalf("seed %d: storm too small to be meaningful (%d events)", seed, len(pooled.fired))
		}
		for i := range pooled.fired {
			if pooled.fired[i] != naive.fired[i] || pooled.times[i] != naive.times[i] {
				t.Fatalf("seed %d: event %d diverged: pooled (id %d, t %v), reference (id %d, t %v)",
					seed, i, pooled.fired[i], pooled.times[i], naive.fired[i], naive.times[i])
			}
		}
		if len(e.heap) != 0 {
			t.Fatalf("seed %d: %d timers left in heap after idle", seed, len(e.heap))
		}
	}
}

// TestStaleCancelAfterRecycle is the regression test for the pool's
// generation counters: a TimerRef held across its timer's firing must
// not cancel the recycled slot's next occupant.
func TestStaleCancelAfterRecycle(t *testing.T) {
	var e Engine
	a := e.Schedule(1, func() {})
	e.RunUntilIdle()

	firedB := false
	b := e.Schedule(1, func() { firedB = true })
	if a.t != b.t {
		t.Fatalf("test setup broken: b did not reuse a's slot (pool order changed?)")
	}
	a.Cancel() // stale handle: must be a no-op
	if !b.Active() {
		t.Fatal("stale Cancel deactivated the slot's new occupant")
	}
	e.RunUntilIdle()
	if !firedB {
		t.Fatal("stale Cancel killed the recycled slot's timer")
	}
	// Also stale after cancel (not just after fire).
	c := e.Schedule(1, func() {})
	c.Cancel()
	firedD := false
	d := e.Schedule(1, func() { firedD = true })
	if c.t != d.t {
		t.Fatalf("test setup broken: d did not reuse c's slot")
	}
	c.Cancel()
	e.RunUntilIdle()
	if !firedD {
		t.Fatal("double Cancel through a stale handle killed the new occupant")
	}
}

// TestHeapEntriesAlwaysLive pins the invariant behind the O(1)
// Pending/NextEventTime: Cancel removes timers from the heap
// immediately, so every heap entry has a live handler.
func TestHeapEntriesAlwaysLive(t *testing.T) {
	var e Engine
	rng := rand.New(rand.NewSource(3))
	var refs []TimerRef
	for i := 0; i < 500; i++ {
		refs = append(refs, e.Schedule(rng.Float64()*10, func() {}))
	}
	for i := 0; i < 200; i++ {
		refs[rng.Intn(len(refs))].Cancel()
	}
	live := 0
	for _, r := range refs {
		if r.Active() {
			live++
		}
	}
	if e.Pending() != live {
		t.Fatalf("Pending = %d, want %d live timers", e.Pending(), live)
	}
	min := math.Inf(1)
	for _, ent := range e.heap {
		timer := e.slots[ent.slot]
		if timer.fn == nil && timer.hfn == nil {
			t.Fatal("heap contains a dead entry; Pending/NextEventTime invariant broken")
		}
		if ent.at < min {
			min = ent.at
		}
	}
	if e.NextEventTime() != min {
		t.Fatalf("NextEventTime = %v, want %v", e.NextEventTime(), min)
	}
	e.Run(5)
	for _, ent := range e.heap {
		if timer := e.slots[ent.slot]; timer.fn == nil && timer.hfn == nil {
			t.Fatal("dead heap entry after partial run")
		}
	}
}

// TestAllocsScheduleFireSteadyState: the schedule→fire cycle must not
// allocate once the pool is warm, in both the closure-free and the
// pre-built-closure form.
func TestAllocsScheduleFireSteadyState(t *testing.T) {
	var e Engine
	count := 0
	tick := func(any) { count++ }
	// Warm the pool.
	e.ScheduleFunc(1, tick, nil)
	e.RunUntilIdle()
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleFunc(1, tick, nil)
		e.RunUntilIdle()
	}); avg != 0 {
		t.Errorf("ScheduleFunc steady state allocates %v per cycle, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		r := e.ScheduleFunc(1, tick, nil)
		r.Cancel()
	}); avg != 0 {
		t.Errorf("schedule+cancel steady state allocates %v per cycle, want 0", avg)
	}
}
