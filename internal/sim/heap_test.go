package sim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// checkHeap asserts the 4-ary heap order and the slot/index links that
// Cancel relies on.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, ent := range e.heap {
		if i > 0 && ent.before(e.heap[(i-1)/4]) {
			t.Fatalf("heap order broken at %d: %+v before parent %+v", i, ent, e.heap[(i-1)/4])
		}
		if got := e.slots[ent.slot].index; got != i {
			t.Fatalf("heap[%d] is slot %d, whose timer claims index %d", i, ent.slot, got)
		}
	}
}

// refEvent is one pending event of the sorted-slice reference queue.
type refEvent struct {
	at  float64
	seq uint64
	id  int
}

// refQueue is the obviously-correct priority queue the heap is checked
// against: a slice kept sorted by (at, seq).
type refQueue struct {
	now float64
	seq uint64
	q   []refEvent
}

func (r *refQueue) push(at float64, id int) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev := refEvent{at, r.seq, id}
	i := sort.Search(len(r.q), func(i int) bool {
		return r.q[i].at > at || (r.q[i].at == at && r.q[i].seq > ev.seq)
	})
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
}

func (r *refQueue) remove(id int) {
	for i, ev := range r.q {
		if ev.id == id {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return
		}
	}
}

// TestHeapMatchesSortedReference drives the engine and a sorted-slice
// reference through the same random interleaving of Schedule, AtFunc
// (including times in the past), Cancel of arbitrary live timers and
// Run, with handlers that schedule and cancel in turn. Every
// fired event must be the reference's front, at the same time, and the
// heap must stay well-formed after every operation.
func TestHeapMatchesSortedReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 2024} {
		var e Engine
		var ref refQueue
		rng := rand.New(rand.NewSource(seed))
		refs := map[int]TimerRef{}
		var live []int
		nextID := 0
		fired := 0

		// Quantized delays make simultaneous events (the seq tie-break)
		// common.
		delay := func() float64 { return float64(rng.Intn(12)) * 0.25 }
		var handler func(any)
		schedule := func() {
			id := nextID
			nextID++
			live = append(live, id)
			if rng.Intn(2) == 0 {
				d := delay()
				refs[id] = e.ScheduleFunc(d, handler, id)
				ref.push(ref.now+d, id)
			} else {
				at := e.Now() + float64(rng.Intn(16)-4)*0.25 // may lie in the past
				refs[id] = e.AtFunc(at, handler, id)
				ref.push(at, id)
			}
		}
		cancel := func() {
			if len(live) == 0 {
				return
			}
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			refs[id].Cancel()
			ref.remove(id)
		}
		handler = func(arg any) {
			id := arg.(int)
			if len(ref.q) == 0 || ref.q[0].id != id {
				t.Fatalf("seed %d: fired id %d, reference front %+v", seed, id, ref.q)
			}
			if ref.q[0].at != e.Now() {
				t.Fatalf("seed %d: id %d fired at %v, reference at %v", seed, id, e.Now(), ref.q[0].at)
			}
			ref.now = ref.q[0].at
			ref.q = ref.q[1:]
			for k, v := range live {
				if v == id {
					live = append(live[:k], live[k+1:]...)
					break
				}
			}
			fired++
			if nextID < 6000 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule()
				}
			}
			if rng.Float64() < 0.3 {
				cancel()
			}
		}

		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				schedule()
			case op < 6:
				cancel()
			default:
				until := e.Now() + float64(rng.Intn(6))*0.25
				e.Run(until)
				ref.now = until
				if len(ref.q) > 0 && ref.q[0].at <= until {
					t.Fatalf("seed %d: Run(%v) left %+v queued", seed, until, ref.q[0])
				}
			}
			checkHeap(t, &e)
			if e.Pending() != len(ref.q) {
				t.Fatalf("seed %d step %d: Pending %d, reference %d", seed, step, e.Pending(), len(ref.q))
			}
			want := math.Inf(1)
			if len(ref.q) > 0 {
				want = ref.q[0].at
			}
			if got := e.NextEventTime(); got != want {
				t.Fatalf("seed %d step %d: NextEventTime %v, reference %v", seed, step, got, want)
			}
		}
		e.RunUntilIdle()
		if len(ref.q) != 0 || fired < 2000 {
			t.Fatalf("seed %d: %d reference events unfired, %d fired", seed, len(ref.q), fired)
		}
	}
}

// TestCancelSiftsReplacementUp pins the removal case a plain sift-down
// gets wrong: the last entry, moved into a cancelled slot of another
// subtree, is earlier than that slot's parent and must move up.
func TestCancelSiftsReplacementUp(t *testing.T) {
	var e Engine
	// Inserted in this order each entry stays where it lands:
	// root 0; children 1, 20, 30, 40; then the children of 1, of 20,
	// of 30 and of 40; and last, at index 21 under the entry 2, time 3.
	times := []float64{0, 1, 20, 30, 40, 2, 5, 6, 7, 21, 22, 23, 24, 31, 32, 33, 34, 41, 42, 43, 44, 3}
	refs := make([]TimerRef, len(times))
	var order []float64
	for i, at := range times {
		refs[i] = e.At(at, func() { order = append(order, e.Now()) })
	}
	for i, at := range times {
		if e.heap[i].at != at {
			t.Fatalf("setup: heap[%d] = %v, want %v", i, e.heap[i].at, at)
		}
	}
	refs[17].Cancel() // time 41 at index 17, a child of 40 at index 4
	checkHeap(t, &e)
	if e.heap[4].at != 3 || e.heap[17].at != 40 {
		t.Fatalf("replacement did not sift up: heap[4] = %v, heap[17] = %v", e.heap[4].at, e.heap[17].at)
	}
	if got := refs[len(times)-1].When(); got != 3 {
		t.Fatalf("moved timer reports When %v, want 3", got)
	}
	e.RunUntilIdle()
	if len(order) != len(times)-1 || !sort.Float64sAreSorted(order) {
		t.Fatalf("fire order %v", order)
	}
}

// TestNaNTimeRejected: a NaN time compares false against every entry,
// which would silently misorder the heap, so scheduling one panics and
// leaves the queue untouched.
func TestNaNTimeRejected(t *testing.T) {
	nan := math.NaN()
	for name, schedule := range map[string]func(e *Engine){
		"Schedule":     func(e *Engine) { e.Schedule(nan, func() {}) },
		"At":           func(e *Engine) { e.At(nan, func() {}) },
		"ScheduleFunc": func(e *Engine) { e.ScheduleFunc(nan, func(any) {}, nil) },
		"AtFunc":       func(e *Engine) { e.AtFunc(nan, func(any) {}, nil) },
	} {
		var e Engine
		e.Schedule(1, func() {})
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "NaN") {
					t.Errorf("%s(NaN): recovered %v, want a NaN panic", name, r)
				}
			}()
			schedule(&e)
		}()
		if e.Pending() != 1 {
			t.Errorf("%s(NaN) changed the queue: %d pending", name, e.Pending())
		}
		checkHeap(t, &e)
	}
}

// holdTick reschedules its own timer: the classic "hold" model that
// keeps the heap at a constant depth.
type holdModel struct {
	e      *Engine
	delays []float64
	k      int
}

func holdTick(arg any) {
	h := arg.(*holdModel)
	h.k++
	h.e.ScheduleFunc(h.delays[h.k&(len(h.delays)-1)], holdTick, h)
}

// BenchmarkEngineScheduleFire measures one fire plus one reschedule at
// a constant heap depth. The §6 churn workload runs at a mean depth of
// about 16 and peaks near 35, so 16 and 64 bracket it. The cancel
// variant adds one schedule+Cancel of a timer that lands mid-heap, the
// pattern of rescheduled per-packet and MAC timers.
func BenchmarkEngineScheduleFire(b *testing.B) {
	for _, bc := range []struct {
		name   string
		depth  int
		cancel bool
	}{{"depth=16", 16, false}, {"depth=64", 64, false}, {"depth=64/cancel", 64, true}} {
		b.Run(bc.name, func(b *testing.B) {
			var e Engine
			rng := rand.New(rand.NewSource(1))
			h := &holdModel{e: &e, delays: make([]float64, 1024)}
			for i := range h.delays {
				h.delays[i] = rng.ExpFloat64()
			}
			for i := 0; i < bc.depth; i++ {
				e.ScheduleFunc(h.delays[i], holdTick, h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.cancel {
					e.ScheduleFunc(h.delays[i&1023], holdTick, h).Cancel()
				}
				e.fire()
			}
		})
	}
}
