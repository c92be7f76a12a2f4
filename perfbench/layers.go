package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/mac"
)

// layerValues turns the traced run's spans and counters, and the
// untraced pass's runner statistics, into the per-layer metrics. A
// metric whose layer did no work on this path is left out of the map.
// The trace overhead compares the traced pass with the untraced pass
// over the same sweeps that followed it.
func layerValues(w workload, a analysis, tr *tracer, untraced, traced, again passResult) map[string]float64 {
	v := map[string]float64{}
	c := tr.counts
	reps := c["reps"]
	us := func(name, metric string) {
		if a.count(name) > 0 {
			v[metric] = a.meanUS(name)
		}
	}
	us("topology.gen", "topology.gen_us")
	us("graph.build", "graph.build_us")
	if n := a.count("routing.route"); n > 0 {
		v["routing.route_us"] = a.meanUS("routing.route")
		v["routing.calls_per_rep"] = float64(n) / reps
		v["routing.paths_per_call"] = c["routing.paths"] / float64(n)
	}
	if n := a.count("congestion.reset"); n > 0 {
		v["congestion.reset_us"] = a.meanUS("congestion.reset")
		v["congestion.slot_ns"] = float64(a.total("congestion.run")) / c["congestion.slots"]
		v["congestion.routes_per_reset"] = c["congestion.routes"] / float64(n)
	}
	if emu := c["sim.emulated_s"]; emu > 0 {
		run := a.total("sim.run")
		v["sim.event_ns"] = float64(run) / c["sim.events"]
		v["sim.events_per_emulated_s"] = c["sim.events"] / emu
		v["sim.heap_depth_max"] = tr.maxes["sim.heap_depth"]
		v["sim.heap_depth_mean"] = c["sim.heap_depth_sum"] / c["sim.samples"]
		delivered, dropped := c["mac.delivered"], c["mac.dropped"]
		v["mac.pkts_per_emulated_s"] = delivered / emu
		if delivered+dropped > 0 {
			v["mac.drop_ratio"] = dropped / (delivered + dropped)
		}
		for r := mac.DropReason(0); r < mac.NumDropReasons; r++ {
			v["mac.drops."+r.String()] = c["mac.drops."+r.String()] / c["node.reps"]
		}
		v["mac.queue_depth_max"] = tr.maxes["mac.queue_depth"]
		v["mac.airtime_share"] = c["mac.busy_s"] / emu
		v["node.run_ms_per_emulated_s"] = ms(run) / emu
		v["node.reroutes_per_rep"] = c["node.reroutes"] / c["node.reps"]
		v["node.failovers_per_rep"] = c["node.failovers"] / c["node.reps"]
		v["node.estimator_resets_per_rep"] = c["node.estimator_resets"] / c["node.reps"]
	}
	us("node.new_emulation", "node.new_emulation_us")
	us("node.add_flow", "node.add_flow_us")
	us("node.collect", "node.collect_us")
	us("scenario.parse", "scenario.parse_us")
	if n := a.count("scenario.bind"); n > 0 {
		v["scenario.bind_ms"] = a.meanUS("scenario.bind") / 1000
		v["scenario.run_ms"] = a.meanUS("scenario.run") / 1000
		v["scenario.collect_ms"] = a.meanUS("scenario.collect") / 1000
		v["scenario.skipped_flows"] = c["scenario.skipped"] / float64(n)
	}
	if n := a.count("fleet.submit"); n > 0 {
		v["fleet.submit_ms"] = a.meanUS("fleet.submit") / 1000
		v["fleet.results_ms"] = a.meanUS("fleet.results") / 1000
		if c["fleet.first_results"] > 0 {
			v["fleet.first_result_ms"] = c["fleet.first_result_ms"] / c["fleet.first_results"]
		}
	}
	if r := float64(untraced.reps); r > 0 {
		v["runner.busy_share"] = untraced.jobTime.Seconds() / (untraced.wall.Seconds() * float64(w.workers()))
		v["runner.alloc_bytes_per_rep"] = float64(untraced.mem.TotalAlloc) / r
		v["runner.allocs_per_rep"] = float64(untraced.mem.Mallocs) / r
		v["runner.gc_per_rep"] = float64(untraced.mem.NumGC) / r
	}
	if f, ok := w.(*fleetWL); ok {
		for k, val := range f.extras(untraced) {
			v[k] = val
		}
	}
	v["bench.trace_overhead"] = traced.wall.Seconds()/again.wall.Seconds() - 1
	root := "runner.rep"
	if a.count(root) == 0 {
		root = "bench.sweep"
	}
	v["bench.trace_coverage"] = a.coverage(root)
	return v
}

// printSelfTimes writes each layer's share of the traced self time.
func printSelfTimes(out io.Writer, a analysis) {
	self := a.layerSelf()
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(out, "self time by layer (span minus the union of its children), %d spans\n", len(a.spans))
	for _, l := range layers {
		fmt.Fprintf(out, "  %-12s %10.1f ms %6.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(total))
	}
}
