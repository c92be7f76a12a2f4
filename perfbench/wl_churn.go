package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// churn is the churn-failover workload: the empower-scenario path with
// its CLI defaults (route management on, Shards 1, δ 0.05, 0.2-s bins,
// 0.8 recovery fraction, schemes EMPoWER, SP, MP-w/o-CC, SP-w/o-CC). One
// sweep is ChurnFailoverCtx with one run of each scheme over one of the
// shipped scenarios, in turn, on a 2-worker runner. The scenarios are
// compressed in time by churnScale so that a run holds enough sweeps.
type churn struct {
	seed int64
	// scenarios holds the time-compressed shipped scenarios as JSON.
	scenarios [][]byte
}

var churnFiles = []string{"flaps.json", "clusters.json", "grayfail.json"}

var churnSchemes = []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeMPWoCC, core.SchemeSPWoCC}

const (
	churnScale   = 1.0 / 6
	churnWorkers = 2
	churnBin     = 0.2
	churnFrac    = 0.8
)

func newChurn(seed int64) *churn { return &churn{seed: seed} }

func (w *churn) clients() int    { return 1 }
func (w *churn) workers() int    { return churnWorkers }
func (w *churn) gateSweeps() int { return len(churnFiles) }
func (w *churn) close() error    { return nil }

func (w *churn) config(k, parallel int, hook func(time.Duration)) experiments.ChurnConfig {
	return experiments.ChurnConfig{Seed: sweepSeed(w.seed, k), Runs: 1, Schemes: churnSchemes,
		Delta: 0.05, Bin: churnBin, Frac: churnFrac, ManageRoutes: true, Shards: 1,
		Parallel: parallel, JobTime: hook}
}

// setup loads the shipped scenarios, compresses them and warms up with
// one sweep over each.
func (w *churn) setup(ctx context.Context) error {
	w.scenarios = w.scenarios[:0]
	for _, f := range churnFiles {
		sc, err := scenario.Load(filepath.Join("examples", "scenarios", f))
		if err != nil {
			return err
		}
		scaleScenario(sc, churnScale)
		b, err := json.Marshal(sc)
		if err != nil {
			return err
		}
		w.scenarios = append(w.scenarios, b)
	}
	for i := range churnFiles {
		if _, _, err := w.run(ctx, warmSweep+i, churnWorkers, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *churn) sweep(ctx context.Context, k int, hook func(time.Duration)) ([]byte, int, error) {
	return w.run(ctx, k, churnWorkers, hook)
}

func (w *churn) run(ctx context.Context, k, parallel int, hook func(time.Duration)) ([]byte, int, error) {
	sc, err := scenario.Parse(w.scenarios[k%len(w.scenarios)])
	if err != nil {
		return nil, 0, err
	}
	cfg := w.config(k, parallel, hook)
	res, err := experiments.ChurnFailoverCtx(ctx, sc, cfg)
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(res)
	return b, experiments.ChurnReps(cfg), err
}

// verify re-runs the gated sweeps (one per scenario) on one worker.
func (w *churn) verify(ctx context.Context, results map[int][]byte) error {
	return rerun(ctx, w.gateSweeps(), results, func(k int) ([]byte, error) {
		b, _, err := w.run(ctx, k, 1, nil)
		return b, err
	})
}

// traced runs sweep k replication by replication through the scenario
// engine's public API and merges like ChurnFailoverCtx. One run per
// scheme makes each merged row exactly one replication's outcome, so the
// comparison with the untraced sweep is per replication.
func (w *churn) traced(ctx context.Context, k int, tr *tracer) ([]byte, error) {
	cfg := w.config(k, churnWorkers, nil)
	root := tr.begin(-(k + 1), "runner.sweep", -1)
	defer tr.end(root)
	sr := &repTrace{t: tr, trace: -(k + 1), cur: root}
	var sc *scenario.Scenario
	var err error
	sr.do("scenario.parse", func() { sc, err = scenario.Parse(w.scenarios[k%len(w.scenarios)]) })
	if err != nil {
		return nil, err
	}
	outs, err := runner.Run(ctx, experiments.ChurnReps(cfg), runner.Config{Workers: churnWorkers, BaseSeed: cfg.Seed},
		func(_ context.Context, rep runner.Rep) (*experiments.ChurnRepOut, error) {
			return tracedChurnRep(tr, root, k*16+rep.Index, sc, cfg, rep)
		})
	if err != nil {
		return nil, err
	}
	return json.Marshal(experiments.MergeChurnReps(sc.Name, cfg, outs))
}

// tracedChurnRep is one churn replication with the seed derivations of
// the experiment: topology realization, emulation, scenario binding
// (with the scheme's route selection wrapped in a span), the run in
// one-second steps, Finish, and the failover and goodput collection.
func tracedChurnRep(tr *tracer, parent, trace int, sc *scenario.Scenario, cfg experiments.ChurnConfig, rep runner.Rep) (*experiments.ChurnRepOut, error) {
	schemes := cfg.Schemes
	run, scheme := rep.Index/len(schemes), schemes[rep.Index%len(schemes)]
	root := tr.begin(trace, "runner.rep", parent)
	defer tr.end(root)
	r := &repTrace{t: tr, trace: trace, cur: root}
	tr.add("reps", 1)

	var net *graph.Network
	var err error
	r.do("graph.build", func() {
		net, err = sc.Topology.BuildView(stats.SplitSeed(cfg.Seed, 2_000_000+run), scheme.View())
	})
	if err != nil {
		return nil, err
	}
	var em *node.Emulation
	r.do("node.new_emulation", func() {
		em = node.NewEmulation(net, node.Config{Delta: cfg.Delta, DisableCC: !scheme.CC(), Estimation: true,
			ExpectedDuration: sc.Duration, Shards: cfg.Shards}, rep.Seed)
	})
	opts := scenario.Options{
		Routes: func(n *graph.Network, src, dst graph.NodeID) []graph.Path {
			var p []graph.Path
			r.do("routing.route", func() { p = core.RoutesFor(scheme, n, src, dst) })
			tr.add("routing.paths", float64(len(p)))
			return p
		},
		ManageRoutes: cfg.ManageRoutes && scheme.CC(),
	}
	var rt *scenario.Runtime
	r.do("scenario.bind", func() { rt, err = scenario.Bind(em, sc, stats.SplitSeed(cfg.Seed, 1_000_000+run), opts) })
	if err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	r.do("scenario.run", func() {
		runSteps(r, rt.Em, rt.Scenario.Duration)
		rt.Finish()
	})
	var out *experiments.ChurnRepOut
	r.do("scenario.collect", func() {
		lat, censored := rt.FailoverLatencies(cfg.Bin, cfg.Frac)
		out = &experiments.ChurnRepOut{
			Latencies: lat,
			Censored:  censored,
			Goodput:   rt.AggregateGoodput(),
			Degraded:  rt.DegradedGoodput(),
			Reroutes:  rt.Reroutes(),
			Skipped:   len(rt.SkippedFlows),
		}
	})
	tr.add("scenario.skipped", float64(len(rt.SkippedFlows)))
	recordEmulation(tr, em)
	return out, nil
}
