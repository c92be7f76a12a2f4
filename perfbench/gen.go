package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// All generated inputs are pure functions of the workload seed: every
// draw comes from a stats.NewRand stream seeded from it, and every
// encoding is json.Marshal of fixed-order structs, so the same seed
// gives byte-identical specs, scenarios and WAL files.

// warmSweep is the index of set-up's first warm-up sweep, beyond any
// pass. Warm-up sweeps draw their seeds from the constant warmSeed, so
// set-up does the same work whatever the workload seed.
const (
	warmSweep = 1 << 30
	warmSeed  = 0x5eed
)

// sweepSeed is the experiment seed of sweep k.
func sweepSeed(seed int64, k int) int64 {
	if k >= warmSweep {
		return stats.SplitSeed(warmSeed, k-warmSweep)
	}
	return stats.SplitSeed(seed, k)
}

// scaleScenario compresses every time of a scenario by f (0 < f): the
// duration, flow windows, event times and process holding times shrink,
// and rates grow, so the timeline keeps its shape in a shorter run.
func scaleScenario(sc *scenario.Scenario, f float64) {
	sc.Duration *= f
	scaleFlow := func(fl *scenario.FlowSpec) {
		fl.Start *= f
		fl.Stop *= f
	}
	for i := range sc.Flows {
		scaleFlow(&sc.Flows[i])
	}
	for i := range sc.Events {
		ev := &sc.Events[i]
		ev.At *= f
		if ev.Flow != nil {
			scaleFlow(ev.Flow)
		}
	}
	for i := range sc.Processes {
		p := &sc.Processes[i]
		p.FirstAt *= f
		p.DownMean *= f
		p.UpMean *= f
		p.Interval *= f
		p.HoldMean *= f
		p.Spread *= f
		p.Rate /= f
	}
}

// fleetScenario generates a fleet sweep's scenario: a three-node
// PLC/WiFi topology with seed-drawn capacities, one saturated flow and a
// flapping PLC link, short enough that a replication costs milliseconds.
func fleetScenario(seed int64) ([]byte, error) {
	rng := stats.NewRand(seed)
	capOf := func(lo, hi float64) float64 { return float64(int(lo + rng.Float64()*(hi-lo))) }
	hybrid := []string{"PLC", "WiFi"}
	sc := scenario.Scenario{
		Name:     "bench-fleet",
		Duration: 4,
		Topology: &scenario.TopologySpec{
			Kind: "custom",
			Nodes: []scenario.NodeSpec{
				{Name: "src", X: 0, Y: 0, Techs: hybrid},
				{Name: "relay", X: 10, Y: 0, Techs: hybrid},
				{Name: "dst", X: 20, Y: 0, Techs: hybrid},
			},
			Links: []scenario.LinkSpec{
				{From: "src", To: "dst", Tech: "PLC", Capacity: capOf(30, 45)},
				{From: "src", To: "relay", Tech: "WiFi", Capacity: capOf(50, 70)},
				{From: "relay", To: "dst", Tech: "WiFi", Capacity: capOf(50, 70)},
			},
		},
		Flows: []scenario.FlowSpec{{Name: "main", Src: "src", Dst: "dst"}},
		Processes: []scenario.Process{{
			Kind:     scenario.ProcFlap,
			Link:     &scenario.LinkRef{From: "src", To: "dst", Tech: "PLC"},
			FirstAt:  0.3 + 0.4*rng.Float64(),
			DownMean: 0.5,
			UpMean:   0.8,
		}},
	}
	return json.Marshal(sc)
}

// fleetSpec is the submission body of POST /sweeps the benchmark sends.
type fleetSpec struct {
	Name     string          `json:"name"`
	Scenario json.RawMessage `json:"scenario"`
	Runs     int             `json:"runs"`
	Seed     int64           `json:"seed"`
	Schemes  string          `json:"schemes"`
}

// fleetSchemes are the churn schemes the fleet sweeps draw from.
var fleetSchemes = []string{"EMPoWER", "SP", "MP-w/o-CC", "SP-w/o-CC"}

// fleetPoolSize is the number of distinct sweep specs one seed draws.
// Sweep k submits spec k mod fleetPoolSize, so every spec runs equally
// often and the mix of sweep sizes is the same for every seed.
const fleetPoolSize = 24

// fleetSpecs draws the pool of sweep specs: every pair of schemes
// appears four times, one spec in three has 2 runs and the rest 3, and
// the scenarios, seeds, pair order and pool order come from the workload
// seed. Each spec has a scenario of its own, so the cost of a run
// averages over many capacity draws instead of resting on one.
func fleetSpecs(seed int64) ([][]byte, error) {
	rng := stats.NewRand(seed + 1)
	var pairs [][2]string
	for i := range fleetSchemes {
		for j := i + 1; j < len(fleetSchemes); j++ {
			pairs = append(pairs, [2]string{fleetSchemes[i], fleetSchemes[j]})
		}
	}
	specs := make([][]byte, fleetPoolSize)
	for i := range specs {
		p := pairs[i%len(pairs)]
		if rng.Intn(2) == 1 {
			p[0], p[1] = p[1], p[0]
		}
		runs := 3
		if i%3 == 0 {
			runs = 2
		}
		sc, err := fleetScenario(stats.SplitSeed(seed, i))
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(fleetSpec{
			Name:     fmt.Sprintf("bench-%02d", i),
			Scenario: sc,
			Runs:     runs,
			Seed:     rng.Int63n(1 << 40),
			Schemes:  p[0] + "," + p[1],
		})
		if err != nil {
			return nil, err
		}
		specs[i] = b
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs, nil
}

// historySweeps is the number of terminal sweeps seeded into the WAL, so
// that opening the daemon pays the replay of a long-running history.
const historySweeps = 1000

// seedWAL writes a daemon history of n done sweeps into a fresh WAL at
// path through the Store's public API: each sweep is submitted, its
// single replication checkpointed with a seed-drawn output record, and
// marked done.
func seedWAL(path string, seed int64, n int, scenarioJSON []byte) error {
	st, err := fleet.OpenStore(path, n+1)
	if err != nil {
		return err
	}
	rng := stats.NewRand(seed + 2)
	for i := 0; i < n; i++ {
		spec, err := json.Marshal(fleetSpec{
			Name:     fmt.Sprintf("history-%04d", i),
			Scenario: scenarioJSON,
			Runs:     1,
			Seed:     rng.Int63n(1 << 40),
			Schemes:  fleetSchemes[rng.Intn(len(fleetSchemes))],
		})
		if err != nil {
			st.Close()
			return err
		}
		sw, err := st.Submit(spec)
		if err != nil {
			st.Close()
			return fmt.Errorf("seeding history sweep %d: %w", i, err)
		}
		out, err := json.Marshal(historyOut(rng))
		if err != nil {
			st.Close()
			return err
		}
		if err := st.CompleteRep(sw, 0, out); err != nil {
			st.Close()
			return err
		}
		if err := st.Finish(sw, fleet.StateDone, ""); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// historyOut draws a plausible replication record for a history sweep.
func historyOut(rng *rand.Rand) experiments.ChurnRepOut {
	out := experiments.ChurnRepOut{Goodput: 10 + 40*rng.Float64()}
	for i := rng.Intn(3); i > 0; i-- {
		out.Latencies = append(out.Latencies, 0.1+rng.Float64())
		out.Degraded = append(out.Degraded, 20*rng.Float64())
	}
	out.Censored = rng.Intn(2)
	out.Reroutes = rng.Intn(4)
	return out
}
