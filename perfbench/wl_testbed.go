package main

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
)

// testbed is the testbed-emulation workload: the empower-testbed -fig 11
// path. One sweep is Figure11Ctx on the 22-node testbed with one flow
// pair, so three replications (one saturated flow each under EMPoWER,
// MP-mWiFi and SP) of a 2-emulated-second emulation. Two closed-loop
// clients run sweeps on one runner worker each.
type testbed struct {
	seed int64
}

const (
	testbedDuration = 2.0
	testbedClients  = 2
	testbedWorkers  = 1 // per client
)

// fig11Runs is Figure11Ctx's (name, scheme) order.
var fig11Runs = []struct {
	name   string
	scheme core.Scheme
}{{"EMPoWER", core.SchemeEMPoWER}, {"MP-mWiFi", core.SchemeMPmWiFi}, {"SP", core.SchemeSP}}

func newTestbed(seed int64) *testbed { return &testbed{seed: seed} }

func (w *testbed) clients() int    { return testbedClients }
func (w *testbed) workers() int    { return testbedClients * testbedWorkers }
func (w *testbed) gateSweeps() int { return 4 }
func (w *testbed) close() error    { return nil }

func (w *testbed) config(k, parallel int, hook func(time.Duration)) experiments.TestbedConfig {
	return experiments.TestbedConfig{Seed: sweepSeed(w.seed, k), Flows: 1, Duration: testbedDuration,
		Parallel: parallel, JobTime: hook}
}

func (w *testbed) setup(ctx context.Context) error {
	_, _, err := w.run(ctx, warmSweep, testbedWorkers, nil)
	return err
}

func (w *testbed) sweep(ctx context.Context, k int, hook func(time.Duration)) ([]byte, int, error) {
	return w.run(ctx, k, testbedWorkers, hook)
}

func (w *testbed) run(ctx context.Context, k, parallel int, hook func(time.Duration)) ([]byte, int, error) {
	res, err := experiments.Figure11Ctx(ctx, w.config(k, parallel, hook))
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(res)
	return b, len(res.Pairs) * len(fig11Runs), err
}

// verify re-runs the gated sweeps on two workers and expects the bytes
// of the one-worker pass.
func (w *testbed) verify(ctx context.Context, results map[int][]byte) error {
	return rerun(ctx, w.gateSweeps(), results, func(k int) ([]byte, error) {
		b, _, err := w.run(ctx, k, 2, nil)
		return b, err
	})
}

func (w *testbed) traced(ctx context.Context, k int, tr *tracer) ([]byte, error) {
	cfg := w.config(k, testbedWorkers, nil)
	root := tr.begin(-(k + 1), "runner.sweep", -1)
	defer tr.end(root)
	sr := &repTrace{t: tr, trace: -(k + 1), cur: root}

	var inst *topology.Instance
	sr.do("topology.gen", func() { inst = topology.Testbed(stats.NewRand(cfg.Seed+11), topology.Config{}) })
	rng := stats.NewRand(cfg.Seed + 110)
	res := experiments.Figure11Result{Mean: map[string][]float64{}, Std: map[string][]float64{},
		Schemes: []string{"EMPoWER", "MP-mWiFi", "SP"}}
	var hybrid *topology.Network
	sr.do("graph.build", func() { hybrid = inst.Build(topology.ViewHybrid) })
	var sel [][2]graph.NodeID
	for tried := 0; len(sel) < cfg.Flows && tried < cfg.Flows*40; tried++ {
		src, dst := inst.RandomFlow(rng)
		var routes []graph.Path
		sr.do("routing.route", func() { routes = core.RoutesFor(core.SchemeEMPoWER, hybrid.Network, src, dst) })
		tr.add("routing.paths", float64(len(routes)))
		if len(routes) == 0 {
			continue
		}
		sel = append(sel, [2]graph.NodeID{src, dst})
		res.Pairs = append(res.Pairs, [2]int{int(src) + 1, int(dst) + 1})
	}

	type cell struct{ mean, std float64 }
	cells, err := runner.Collect(ctx, len(sel)*len(fig11Runs), runner.Config{Workers: testbedWorkers, BaseSeed: cfg.Seed},
		func(_ context.Context, rep runner.Rep) cell {
			pair, run := rep.Index/len(fig11Runs), fig11Runs[rep.Index%len(fig11Runs)]
			src, dst := sel[pair][0], sel[pair][1]
			trace := k*16 + rep.Index
			repRoot := tr.begin(trace, "runner.rep", root)
			defer tr.end(repRoot)
			r := &repTrace{t: tr, trace: trace, cur: repRoot}
			tr.add("reps", 1)
			var view *topology.Network
			r.do("graph.build", func() { view = inst.Build(run.scheme.View()) })
			var routes []graph.Path
			r.do("routing.route", func() { routes = core.RoutesFor(run.scheme, view.Network, src, dst) })
			tr.add("routing.paths", float64(len(routes)))
			if len(routes) == 0 {
				return cell{}
			}
			var em *node.Emulation
			r.do("node.new_emulation", func() {
				em = node.NewEmulation(view.Network, node.Config{Delta: 0.05, Estimation: true},
					cfg.Seed+int64(pair+1)*31+int64(len(run.name)))
			})
			var err error
			r.do("node.add_flow", func() {
				_, err = em.AddFlow(node.FlowSpec{Src: src, Dst: dst, Routes: routes, Kind: node.TrafficSaturated}, 0)
			})
			if err != nil {
				return cell{}
			}
			runSteps(r, em, cfg.Duration)
			var c cell
			r.do("node.collect", func() {
				_, series := em.Agent(dst).Sinks()[0].RateSeries(1.0)
				tail := series
				if len(series) > int(cfg.Duration/2) {
					tail = series[len(series)-int(cfg.Duration/2):]
				}
				s := stats.Summarize(tail)
				c = cell{mean: s.Mean, std: s.Std}
			})
			recordEmulation(tr, em)
			return c
		})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		name := fig11Runs[i%len(fig11Runs)].name
		res.Mean[name] = append(res.Mean[name], c.mean)
		res.Std[name] = append(res.Std[name], c.std)
	}
	return json.Marshal(res)
}
