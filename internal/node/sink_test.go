package node

import (
	"math"
	"math/rand"
	"testing"
)

// mapReorder is the map-backed reorder buffer the ring replaced, kept
// as the reference the ring is checked against. Its loss rule reads the
// route state of the sink under test, so both see the same routes.
type mapReorder struct {
	routes    *Sink
	nextSeq   uint32
	buffer    map[uint32]delivery
	lost      int
	delivered []delivery
}

type delivery struct {
	seq   uint32
	bytes int
	meta  interface{}
}

func (m *mapReorder) admit(seq uint32, payloadLen uint16, meta interface{}) {
	if seq >= m.nextSeq {
		m.buffer[seq] = delivery{seq, int(payloadLen), meta}
	}
	for {
		if e, ok := m.buffer[m.nextSeq]; ok {
			m.delivered = append(m.delivered, e)
			delete(m.buffer, m.nextSeq)
			m.nextSeq++
			continue
		}
		if !m.routes.allRoutesPast(m.nextSeq) {
			return
		}
		m.lost++
		m.nextSeq++
	}
}

// TestSinkRingMatchesMapReference replays random arrival orders through
// the ring and the map reference: three FIFO routes of different delay,
// packets that overtake their route, duplicates, stale (already
// delivered or skipped) sequence numbers, and a route that falls silent.
// The silent route holds the window open for a second, so the ring
// grows far past its initial size mid-window, until its frozen state
// goes stale and the loss rule skips past its missing packets.
func TestSinkRingMatchesMapReference(t *testing.T) {
	net, a, c, _ := figure1()
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		em := NewEmulation(net, Config{}, seed)
		rng := rand.New(rand.NewSource(seed))
		s := newSink(em.Agents[c], a, 1)
		var got []delivery
		s.OnDeliver = func(seq uint32, bytes int, meta interface{}) {
			got = append(got, delivery{seq, bytes, meta})
		}
		ref := &mapReorder{routes: s, buffer: map[uint32]delivery{}}

		const n = 6000
		// Each packet takes one of three routes; route 2 goes silent for
		// the middle third (its packets are lost), route 1 drops a few.
		route := make([]uint8, n)
		lost := make([]bool, n)
		for i := range route {
			route[i] = uint8(rng.Intn(3))
			lost[i] = (route[i] == 2 && i > n/3 && i < 2*n/3) || (route[i] == 1 && rng.Float64() < 0.02)
		}
		// Arrival order: each route is FIFO with its own delay (in
		// packets), and a few packets overtake their route by 100–400.
		delay := [3]float64{0, 12, 45}
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(i) + delay[route[i]] + rng.Float64()*0.5
			if rng.Float64() < 0.003 {
				keys[i] -= 100 + rng.Float64()*300
			}
		}
		order := rng.Perm(n)
		sortByKey(order, keys)

		// Transport metadata: always (a TCP flow), never (a plain flow,
		// whose ring keeps no metadata slots), or from a third of the way
		// in, so the metadata ring appears mid-window.
		meta := func(i, step int) interface{} {
			if seed%3 == 1 || (seed%3 == 2 && step < n/3) {
				return nil
			}
			return i
		}

		now := 0.0
		grew := false
		for step, i := range order {
			if lost[i] {
				continue
			}
			// Time runs at ~1000 packets/s, with one 1.5 s stall that
			// lets a silent route go stale.
			now += 0.001
			if step == n/2 {
				now += 1.5
			}
			em.Engine.Run(now)
			rs := s.route(route[i])
			rs.seen = true
			rs.lastSeen = now
			seq := uint32(i)
			if seq > rs.maxSeq {
				rs.maxSeq = seq
			}
			plen := uint16(100 + i%1400)
			s.admit(seq, plen, meta(i, step))
			ref.admit(seq, plen, meta(i, step))
			if len(s.ring) >= 16*sinkRingInit {
				grew = true
			}
			// Duplicates of a random recent packet, often already stale.
			if rng.Float64() < 0.05 {
				d := i - rng.Intn(80)
				if d >= 0 && !lost[d] {
					s.admit(uint32(d), uint16(100+d%1400), meta(d, step))
					ref.admit(uint32(d), uint16(100+d%1400), meta(d, step))
				}
			}
			if s.nextSeq != ref.nextSeq || s.Lost != ref.lost || len(got) != len(ref.delivered) {
				t.Fatalf("seed %d step %d: ring (next %d, lost %d, %d delivered), map (next %d, lost %d, %d delivered)",
					seed, step, s.nextSeq, s.Lost, len(got), ref.nextSeq, ref.lost, len(ref.delivered))
			}
		}
		for k := range got {
			if got[k] != ref.delivered[k] {
				t.Fatalf("seed %d: delivery %d: ring %+v, map %+v", seed, k, got[k], ref.delivered[k])
			}
		}
		if !grew || ref.lost == 0 || len(got) < n/2 {
			t.Fatalf("seed %d: scenario too tame (grew %v, lost %d, delivered %d)", seed, grew, ref.lost, len(got))
		}
		if (s.metas == nil) != (seed%3 == 1) {
			t.Fatalf("seed %d: metadata ring allocated = %v", seed, s.metas != nil)
		}
		// Delivered slots are cleared, so the ring retains no metadata.
		if s.ring[s.slot(s.nextSeq)].present {
			t.Fatalf("seed %d: slot of nextSeq still occupied after flush", seed)
		}
		for k, m := range s.metas {
			if !s.ring[k].present && m != nil {
				t.Fatalf("seed %d: empty ring slot %d retains meta %v", seed, k, m)
			}
		}
	}
}

// sortByKey orders idx by keys[idx] (ties by index), an insertion sort
// over a nearly sorted permutation.
func sortByKey(idx []int, keys []float64) {
	less := func(x, y int) bool { return keys[x] < keys[y] || (keys[x] == keys[y] && x < y) }
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// meanRateSeries is MeanRate as it was before the running bins: rebuild
// series(0.5) and average the bins whose midpoints fall in [from, to).
func meanRateSeries(l *seriesLog, from, to float64) float64 {
	ts, rates := l.series(0.5)
	if len(ts) == 0 || to <= from {
		return 0
	}
	var sum float64
	var n int
	for i, t := range ts {
		if t >= from && t < to {
			sum += rates[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestMeanRateMatchesSeries pins MeanRate bit for bit to the series(0.5)
// computation it replaced, for random logs (bursty, with empty bins, on
// and off bin edges, with and without a presized bin table) and random
// windows that start and end off bin edges, inside, before and beyond
// the logged span.
func TestMeanRateMatchesSeries(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		expected := []float64{0, 3, 40}[seed%3]
		s := &Sink{log: newSeriesLog(expected)}
		if got := s.MeanRate(0, 10); got != 0 {
			t.Fatalf("empty log: MeanRate %v, want 0", got)
		}
		now := 0.0
		for i := 0; i < 5000+rng.Intn(5000); i++ {
			switch r := rng.Float64(); {
			case r < 0.002:
				now += 1 + rng.Float64()*3 // silence: empty bins
			case r < 0.01:
				now = math.Ceil(now*2) / 2 // exactly on a bin edge
			default:
				now += rng.ExpFloat64() * 0.004
			}
			s.log.add(now, float64(8*(40+rng.Intn(1460))))
		}
		for k := 0; k < 300; k++ {
			from := rng.Float64()*(now+4) - 2
			to := from + rng.Float64()*(now+4)
			switch k % 4 {
			case 0:
				from = math.Floor(from*2) / 2 // on a bin edge
			case 1:
				from, to = math.Floor(from*4)/4, math.Floor(to*4)/4 // on a bin midpoint
			case 2:
				to = from - rng.Float64() // empty or inverted window
			}
			got, want := s.MeanRate(from, to), meanRateSeries(s.log, from, to)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: MeanRate(%v, %v) = %v, series gives %v", seed, from, to, got, want)
			}
		}
	}
}
