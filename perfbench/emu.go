package main

import (
	"math"

	"repro/internal/mac"
	"repro/internal/node"
)

// runSteps advances an emulation to dur in one-emulated-second steps,
// one sim.run span per step, sampling the engine and MAC between steps.
// Engine.Run is inclusive and only clamps the clock, so stepping fires
// the same events in the same order as one Run(dur).
func runSteps(r *repTrace, em *node.Emulation, dur float64) {
	t := r.t
	for step := 1.0; ; step++ {
		until := math.Min(step, dur)
		before := em.EventsFired()
		r.do("sim.run", func() { em.Run(until) })
		t.add("sim.events", float64(em.EventsFired()-before))
		depth, queue := 0, 0
		for d := 0; d < em.NumDomains(); d++ {
			dom := em.Domain(d)
			depth = max(depth, dom.Engine.Pending())
			queue += dom.MAC.TotalQueueLen()
		}
		t.add("sim.heap_depth_sum", float64(depth))
		t.add("sim.samples", 1)
		t.max("sim.heap_depth", float64(depth))
		t.max("mac.queue_depth", float64(queue))
		if until >= dur {
			break
		}
	}
	t.add("sim.emulated_s", dur)
}

// recordEmulation adds a finished emulation's MAC and agent counters.
func recordEmulation(t *tracer, em *node.Emulation) {
	var st mac.LinkStats
	for d := 0; d < em.NumDomains(); d++ {
		s := em.Domain(d).MAC.TotalStats()
		st.DeliveredPkts += s.DeliveredPkts
		st.DroppedPkts += s.DroppedPkts
		st.BusySeconds += s.BusySeconds
		for r := range s.Dropped {
			st.Dropped[r] += s.Dropped[r]
		}
	}
	t.add("mac.delivered", float64(st.DeliveredPkts))
	t.add("mac.dropped", float64(st.DroppedPkts))
	t.add("mac.busy_s", st.BusySeconds)
	for r := mac.DropReason(0); r < mac.NumDropReasons; r++ {
		t.add("mac.drops."+r.String(), float64(st.Dropped[r]))
	}
	t.add("node.reroutes", float64(em.Reroutes()))
	t.add("node.failovers", float64(em.Failovers()))
	t.add("node.estimator_resets", float64(em.EstimatorResets()))
	t.add("node.reps", 1)
}
