package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run from
// the benchmark's own code around the program's public functions.
type span struct {
	trace      int // replication index (fleet: sweep index)
	name       string
	start, end time.Duration // since the tracer started
	parent     int           // index of the enclosing span, -1 for a root
}

// tracer keeps spans and counters in memory until the run ends. Both
// workers of a sweep record into one tracer, so it carries a mutex.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	maxes  map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, maxes: map[string]float64{}}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(trace int, name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{trace: trace, name: name, start: now, end: -1, parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// max keeps the largest value seen for a gauge.
func (t *tracer) max(name string, v float64) {
	t.mu.Lock()
	if v > t.maxes[name] {
		t.maxes[name] = v
	}
	t.mu.Unlock()
}

// repTrace is the per-replication view of a tracer: a replication runs
// on one goroutine, so the current span is plain state that callbacks
// from inside the program (the scenario's route function) nest under.
type repTrace struct {
	t     *tracer
	trace int
	cur   int
}

// do runs fn inside a span named name, nested under the current span.
func (r *repTrace) do(name string, fn func()) {
	id := r.t.begin(r.trace, name, r.cur)
	outer := r.cur
	r.cur = id
	fn()
	r.cur = outer
	r.t.end(id)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n           int
	total, self time.Duration
}

// analysis is the post-run view of a tracer's spans.
type analysis struct {
	byName map[string]*spanStat
	self   []time.Duration
	spans  []span
}

func analyze(spans []span) analysis {
	a := analysis{byName: map[string]*spanStat{}, self: selfTimes(spans), spans: spans}
	for i, s := range spans {
		st := a.byName[s.name]
		if st == nil {
			st = &spanStat{}
			a.byName[s.name] = st
		}
		st.n++
		st.total += s.end - s.start
		st.self += a.self[i]
	}
	return a
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children of one parent may overlap (the two
// workers of a sweep); the covered part is the measure of their union,
// clipped to the parent, so overlapping work is not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := spans[c].start, spans[c].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// coverage is Σ self time of every descendant of the root spans named
// root, over Σ duration of those roots: the share of replication time
// the trace attributes to a layer.
func (a analysis) coverage(root string) float64 {
	var covered, total time.Duration
	for i, s := range a.spans {
		if s.name == root {
			total += s.end - s.start
			continue
		}
		for p := s.parent; p >= 0; p = a.spans[p].parent {
			if a.spans[p].name == root {
				covered += a.self[i]
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// layerSelf sums self time by layer, the span-name prefix before the dot.
func (a analysis) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, st := range a.byName {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.self
	}
	return out
}

// meanUS is the mean duration of the spans named name in µs (0 if none).
func (a analysis) meanUS(name string) float64 {
	st := a.byName[name]
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.total) / float64(st.n) / float64(time.Microsecond)
}

func (a analysis) count(name string) int {
	if st := a.byName[name]; st != nil {
		return st.n
	}
	return 0
}

func (a analysis) total(name string) time.Duration {
	if st := a.byName[name]; st != nil {
		return st.total
	}
	return 0
}
