package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
)

// analytic is the analytic-sweep workload: the empower-sim -fig 4 path.
// One sweep is Figure4Ctx over 6 residential then 2 enterprise instances
// at the default 4000 controller slots, on a 2-worker runner. The 3:1 mix
// keeps the replication-time median inside the residential mode and the
// p90 inside the enterprise mode, away from the gap between them.
type analytic struct {
	seed int64
}

var analyticParts = []struct {
	topo experiments.Topo
	runs int
}{{experiments.TopoResidential, 6}, {experiments.TopoEnterprise, 2}}

// fig4Schemes is Figure4Ctx's scheme order.
var fig4Schemes = []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeSPWiFi,
	core.SchemeMPWiFi, core.SchemeMPmWiFi}

const analyticWorkers = 2

func newAnalytic(seed int64) *analytic { return &analytic{seed: seed} }

func (w *analytic) clients() int    { return 1 }
func (w *analytic) workers() int    { return analyticWorkers }
func (w *analytic) gateSweeps() int { return 4 }
func (w *analytic) close() error    { return nil }

func (w *analytic) setup(ctx context.Context) error {
	_, _, err := w.run(ctx, warmSweep, analyticWorkers, nil)
	return err
}

func (w *analytic) sweep(ctx context.Context, k int, hook func(d time.Duration)) ([]byte, int, error) {
	return w.run(ctx, k, analyticWorkers, hook)
}

func (w *analytic) run(ctx context.Context, k, parallel int, hook func(d time.Duration)) ([]byte, int, error) {
	s := sweepSeed(w.seed, k)
	var outs []experiments.Figure4Result
	reps := 0
	for _, p := range analyticParts {
		res, err := experiments.Figure4Ctx(ctx, p.topo, experiments.SimConfig{
			Runs: p.runs, Seed: s, Parallel: parallel, JobTime: hook})
		if err != nil {
			return nil, 0, err
		}
		outs = append(outs, res)
		reps += p.runs
	}
	b, err := json.Marshal(outs)
	return b, reps, err
}

// verify re-runs the gated sweeps on one worker: the results must be
// byte-identical to the 2-worker pass (the repository's determinism
// contract).
func (w *analytic) verify(ctx context.Context, results map[int][]byte) error {
	return rerun(ctx, w.gateSweeps(), results, func(k int) ([]byte, error) {
		b, _, err := w.run(ctx, k, 1, nil)
		return b, err
	})
}

// rerun recomputes sweeps 0..n-1 and compares them with a pass's results.
func rerun(ctx context.Context, n int, results map[int][]byte, run func(k int) ([]byte, error)) error {
	for k := 0; k < n; k++ {
		b, err := run(k)
		if err != nil {
			return fmt.Errorf("re-running sweep %d: %w", k, err)
		}
		if string(b) != string(results[k]) {
			return fmt.Errorf("sweep %d: re-run at another worker count differs", k)
		}
	}
	return nil
}

func (w *analytic) traced(ctx context.Context, k int, tr *tracer) ([]byte, error) {
	s := sweepSeed(w.seed, k)
	root := tr.begin(-(k + 1), "runner.sweep", -1)
	defer tr.end(root)
	var outs []experiments.Figure4Result
	base := 0
	for _, p := range analyticParts {
		p, off := p, base
		rows, err := runner.Collect(ctx, p.runs, runner.Config{Workers: analyticWorkers, BaseSeed: s},
			func(_ context.Context, rep runner.Rep) []float64 {
				return tracedFig4Rep(tr, root, k*16+off+rep.Index, p.topo, s, rep.Index)
			})
		if err != nil {
			return nil, err
		}
		base += p.runs
		res := experiments.Figure4Result{Topo: p.topo, Samples: map[core.Scheme][]float64{}}
		for _, row := range rows {
			for i, sc := range fig4Schemes {
				res.Samples[sc] = append(res.Samples[sc], row[i])
			}
		}
		res.GainVsWiFi = meanGain(res.Samples[core.SchemeEMPoWER], res.Samples[core.SchemeSPWiFi])
		res.GainVsSP = meanGain(res.Samples[core.SchemeEMPoWER], res.Samples[core.SchemeSP])
		outs = append(outs, res)
	}
	return json.Marshal(outs)
}

// tracedFig4Rep is one Figure 4 replication, called layer by layer: the
// instance and flow draw of the serial loops' seeding, then per scheme
// the view, the routes, the controller's warm start, reset and run.
func tracedFig4Rep(tr *tracer, parent, trace int, topo experiments.Topo, seed int64, run int) []float64 {
	root := tr.begin(trace, "runner.rep", parent)
	defer tr.end(root)
	r := &repTrace{t: tr, trace: trace, cur: root}
	var inst *topology.Instance
	var src, dst graph.NodeID
	r.do("topology.gen", func() {
		rng := stats.NewRand(seed + int64(run))
		if topo == experiments.TopoEnterprise {
			inst = topology.Enterprise(rng, topology.Config{})
		} else {
			inst = topology.Residential(rng, topology.Config{})
		}
		src, dst = inst.RandomFlow(stats.NewRand(seed + int64(run) + 1_000_000))
	})
	out := make([]float64, len(fig4Schemes))
	var ctrl congestion.Controller
	for i, s := range fig4Schemes {
		out[i] = tracedThroughput(r, &ctrl, inst, s, src, dst)
	}
	tr.add("reps", 1)
	return out
}

// tracedThroughput is core.Throughput's congestion-controlled path with
// the default options (4000 slots, α 0.05, δ 0): the flow's rate averaged
// over the last quarter of the controller's trajectory.
func tracedThroughput(r *repTrace, ctrl *congestion.Controller, inst *topology.Instance, s core.Scheme, src, dst graph.NodeID) float64 {
	const slots = 4000
	var net *topology.Network
	r.do("graph.build", func() { net = inst.BuildCached(s.View()) })
	var routes []graph.Path
	r.do("routing.route", func() { routes = core.RoutesFor(s, net.Network, src, dst) })
	r.t.add("routing.paths", float64(len(routes)))
	if len(routes) == 0 {
		return 0
	}
	cc := make([]congestion.Route, len(routes))
	for i, p := range routes {
		cc[i] = congestion.Route{Links: p, Flow: 0}
	}
	var initial []float64
	r.do("routing.seq_rates", func() {
		for _, x := range routing.AppendSequentialRates(net.Network, routes, nil) {
			initial = append(initial, 0.7*x)
		}
	})
	var err error
	r.do("congestion.reset", func() {
		err = ctrl.Reset(net.Network, cc, congestion.Options{Alpha: 0.05, InitialRates: initial})
	})
	if err != nil {
		return math.NaN() // fails the comparison with the untraced run
	}
	var traj []float64
	r.do("congestion.run", func() { traj = ctrl.RunAppend(slots, nil) })
	r.t.add("congestion.slots", slots)
	r.t.add("congestion.routes", float64(len(cc)))
	nf, tail := ctrl.NumFlows(), slots/4
	var sum float64
	for t := slots - tail; t < slots; t++ {
		sum += traj[t*nf]
	}
	return sum / float64(tail)
}

// meanGain is Figure 4's mean(a)/mean(b) − 1.
func meanGain(a, b []float64) float64 {
	mb := stats.Mean(b)
	if mb == 0 {
		return 0
	}
	return stats.Mean(a)/mb - 1
}
