package main

import (
	"fmt"
	"io"
	"strings"
)

// metricDef names one reported metric; feeds is the end-to-end metric a
// per-layer metric should move (WORKLOADS.md gives where it should move
// and where it must not).
type metricDef struct {
	name, unit, feeds string
}

// endToEnd are the user-visible metrics of every untraced run, each
// measured with tracing off. failed_frac is printed beside them; the
// result line carries it as its attempted and failed counts.
var endToEnd = []metricDef{
	{name: "reps_per_s", unit: "1/s"},
	{name: "rep_p50_ms", unit: "ms"},
	{name: "rep_p90_ms", unit: "ms"},
	{name: "sweep_p50_ms", unit: "ms"},
	{name: "sweep_p90_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

const (
	wA = "analytic-sweep"
	wT = "testbed-emulation"
	wC = "churn-failover"
	wF = "fleet-daemon"
)

// perLayer are the traced run's metrics, in report order.
var perLayer = []metricDef{
	{"topology.gen_us", "us", "rep_p50_ms"},
	{"graph.build_us", "us", "rep_p50_ms"},
	{"routing.route_us", "us", "rep_p50_ms, rep_p90_ms"},
	{"routing.calls_per_rep", "count", "rep_p50_ms, rep_p90_ms"},
	{"routing.paths_per_call", "count", "rep_p50_ms, rep_p90_ms"},
	{"congestion.reset_us", "us", "rep_p50_ms, reps_per_s"},
	{"congestion.slot_ns", "ns/slot", "rep_p50_ms, reps_per_s"},
	{"congestion.routes_per_reset", "count", "rep_p50_ms, reps_per_s"},
	{"sim.event_ns", "ns", "reps_per_s, rep_p50_ms"},
	{"sim.events_per_emulated_s", "count", "reps_per_s, rep_p50_ms"},
	{"sim.heap_depth_max", "count", "reps_per_s, rep_p50_ms"},
	{"sim.heap_depth_mean", "count", "reps_per_s, rep_p50_ms"},
	{"mac.pkts_per_emulated_s", "count", "rep_p50_ms"},
	{"mac.drop_ratio", "ratio", "rep_p50_ms"},
	{"mac.drops.dead-link", "count", "rep_p50_ms"},
	{"mac.drops.queue-overflow", "count", "rep_p50_ms"},
	{"mac.drops.link-down", "count", "rep_p50_ms"},
	{"mac.drops.channel-loss", "count", "rep_p50_ms"},
	{"mac.queue_depth_max", "count", "rep_p50_ms"},
	{"mac.airtime_share", "ratio", "rep_p50_ms"},
	{"node.new_emulation_us", "us", "rep_p50_ms, reps_per_s"},
	{"node.add_flow_us", "us", "rep_p50_ms, reps_per_s"},
	{"node.run_ms_per_emulated_s", "ms", "rep_p50_ms, reps_per_s"},
	{"node.collect_us", "us", "rep_p50_ms, reps_per_s"},
	{"node.reroutes_per_rep", "count", "rep_p90_ms"},
	{"node.failovers_per_rep", "count", "rep_p90_ms"},
	{"node.estimator_resets_per_rep", "count", "rep_p90_ms"},
	{"scenario.parse_us", "us", "rep_p50_ms, setup_s"},
	{"scenario.bind_ms", "ms", "rep_p50_ms, setup_s"},
	{"scenario.run_ms", "ms", "rep_p50_ms, setup_s"},
	{"scenario.collect_ms", "ms", "rep_p50_ms, setup_s"},
	{"scenario.skipped_flows", "count", "rep_p50_ms, setup_s"},
	{"runner.busy_share", "ratio", "reps_per_s, peak_rss_mb"},
	{"runner.alloc_bytes_per_rep", "B", "reps_per_s, peak_rss_mb"},
	{"runner.allocs_per_rep", "count", "reps_per_s, peak_rss_mb"},
	{"runner.gc_per_rep", "count", "reps_per_s, peak_rss_mb"},
	{"fleet.submit_ms", "ms", "sweep_p50_ms, sweep_p90_ms"},
	{"fleet.first_result_ms", "ms", "sweep_p50_ms, sweep_p90_ms"},
	{"fleet.results_ms", "ms", "sweep_p50_ms, sweep_p90_ms"},
	{"fleet.overhead_ms", "ms", "sweep_p50_ms, sweep_p90_ms"},
	{"fleet.wal_records_per_sweep", "count", "setup_s, sweep_p50_ms"},
	{"fleet.wal_bytes_per_sweep", "B", "setup_s, sweep_p50_ms"},
	{"fleet.replay_ms", "ms", "setup_s, sweep_p50_ms"},
	{"fleet.replay_records", "count", "setup_s, sweep_p50_ms"},
	{"fleet.retries", "count", "setup_s, sweep_p50_ms"},
	{"bench.trace_overhead", "ratio", "- (trace quality)"},
	{"bench.trace_coverage", "ratio", "- (trace quality)"},
}

// absentWhy explains, per workload, why a layer's metrics have no value
// on its path; keys are a metric name or its layer prefix.
var absentWhy = map[string]map[string]string{
	wA: {
		"sim":      "the analytic path runs no event loop",
		"mac":      "the analytic path has no packet MAC (all five schemes are congestion-controlled, so not even the fluid MAC runs)",
		"node":     "the analytic path emulates no nodes",
		"scenario": "Figure 4 binds no scenario",
		"fleet":    "no daemon on this path",
	},
	wT: {
		"congestion": "emulated agents run their own distributed controller inside the event loop; the centralized controller is not called",
		"scenario":   "Figure 11 binds no scenario",
		"fleet":      "no daemon on this path",
	},
	wC: {
		"topology.gen_us":  "shipped scenarios are custom topologies: BuildView materializes the graph directly (graph.build_us)",
		"congestion":       "emulated agents run their own distributed controller inside the event loop; the centralized controller is not called",
		"node.add_flow_us": "flows start from the scenario timeline inside Emulation.Run, so AddFlow is inside sim.run spans",
		"node.collect_us":  "sink reads happen inside the scenario's collect calls (scenario.collect_ms)",
		"fleet":            "no daemon on this path",
	},
	wF: {
		"topology":   "replications run inside the daemon; the traced run spans only its HTTP calls",
		"graph":      "replications run inside the daemon; the traced run spans only its HTTP calls",
		"routing":    "replications run inside the daemon; the traced run spans only its HTTP calls",
		"congestion": "replications run inside the daemon; the traced run spans only its HTTP calls",
		"sim":        "replications run inside the daemon; the traced run spans only its HTTP calls",
		"mac":        "replications run inside the daemon; the traced run spans only its HTTP calls",
		"node":       "replications run inside the daemon; the traced run spans only its HTTP calls",
		"scenario":   "specs are parsed and bound inside the daemon; the traced run spans only its HTTP calls",
	},
}

func absentReason(workload, metric string) string {
	m := absentWhy[workload]
	if r, ok := m[metric]; ok && r != "" {
		return r
	}
	layer, _, _ := strings.Cut(metric, ".")
	if r := m[layer]; r != "" {
		return r
	}
	return "no sample on this workload's path"
}

// printLayerTable writes the traced run's per-layer table: every metric
// of perLayer, its value and the end-to-end metric it feeds, naming the
// ones absent on this workload's path instead of dropping them.
func printLayerTable(w io.Writer, workload string, vals map[string]float64) {
	fmt.Fprintf(w, "per-layer metrics, %s (traced run)\n", workload)
	fmt.Fprintf(w, "  %-30s %-8s %14s  %-28s\n", "metric", "unit", "value", "feeds")
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-30s %-8s %14s  %-28s absent: %s\n", d.name, d.unit, "-", d.feeds, absentReason(workload, d.name))
			continue
		}
		fmt.Fprintf(w, "  %-30s %-8s %14.6g  %-28s\n", d.name, d.unit, v, d.feeds)
	}
}
