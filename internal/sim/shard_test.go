package sim

import (
	"sync"
	"testing"
)

// The shard suite models how a sharded emulation uses the engine: the
// workload splits into closed shards (here, pairs of processes that
// message only each other), each shard owns one Engine, and every Run
// advances all shard engines to the same horizon — in turn with one
// worker, otherwise shard d on worker d mod W. Shards exchange no
// events, so no coordination beyond the shared horizon is needed.

type procEntry struct {
	t float64
	v int
}

type shardProc struct {
	e       *Engine
	id      int
	peer    *shardProc
	ticks   int
	counter int
	tickLog []procEntry
	msgLog  []procEntry
}

// msgDelay keeps message arrivals off the local tick grid.
const msgDelay = 0.7703137

func (p *shardProc) tick() {
	p.counter += p.id + 1
	p.tickLog = append(p.tickLog, procEntry{p.e.Now(), p.counter})
	p.ticks++
	if p.ticks%3 == 0 {
		p.e.ScheduleFunc(msgDelay, procMsg, p.peer)
	}
}

func procMsg(arg any) {
	q := arg.(*shardProc)
	q.counter += 100
	q.msgLog = append(q.msgLog, procEntry{q.e.Now(), q.counter})
}

// runShards advances every engine to until, as the sharded emulation
// does.
func runShards(engines []*Engine, workers int, until float64) {
	if workers == 1 {
		for _, e := range engines {
			e.Run(until)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for d := w; d < len(engines); d += workers {
				engines[d].Run(until)
			}
		}()
	}
	wg.Wait()
}

// runProcs runs 2*pairs processes, process 2k and 2k+1 forming a closed
// shard, in Run calls of `step` up to until on `workers` goroutines.
func runProcs(pairs, workers int, until, step float64) []*shardProc {
	engines := make([]*Engine, pairs)
	procs := make([]*shardProc, 2*pairs)
	for d := range engines {
		engines[d] = &Engine{}
	}
	for i := range procs {
		procs[i] = &shardProc{id: i, e: engines[i/2]}
	}
	for i, p := range procs {
		p.peer = procs[i^1]
		p.e.Every(0.1+0.013*float64(p.id), p.tick)
	}
	for t := step; t <= until+1e-9; t += step {
		runShards(engines, workers, t)
	}
	return procs
}

func sameLogs(t *testing.T, kind string, a, b []procEntry, id int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("proc %d %s log length %d vs %d", id, kind, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("proc %d %s log[%d] = %+v vs %+v", id, kind, i, a[i], b[i])
		}
	}
}

// TestShardedChunkedRuns checks that many small Run calls over a set of
// shard engines (the per-second advancement the emulation benches use)
// land on the same trajectory as one big Run, at any worker count.
func TestShardedChunkedRuns(t *testing.T) {
	const pairs, until = 3, 12.0
	oneShot := runProcs(pairs, 1, until, until)
	if len(oneShot[0].msgLog) == 0 {
		t.Fatal("workload sent no messages; the test is vacuous")
	}
	for _, workers := range []int{1, 2} {
		chunked := runProcs(pairs, workers, until, 0.25)
		for i := range oneShot {
			sameLogs(t, "tick", oneShot[i].tickLog, chunked[i].tickLog, i)
			sameLogs(t, "msg", oneShot[i].msgLog, chunked[i].msgLog, i)
		}
	}
}

// TestShardedClocksClamped: advancing a set of shard engines leaves every
// clock exactly at `until`, even for shards that had no events.
func TestShardedClocksClamped(t *testing.T) {
	for _, workers := range []int{1, 2} {
		engines := []*Engine{{}, {}}
		engines[0].Schedule(1.0, func() {})
		runShards(engines, workers, 3.5)
		for i, e := range engines {
			if e.Now() != 3.5 {
				t.Fatalf("workers=%d: shard %d clock = %g, want 3.5", workers, i, e.Now())
			}
			if e.Pending() != 0 {
				t.Fatalf("workers=%d: shard %d pending = %d, want 0", workers, i, e.Pending())
			}
		}
	}
}
