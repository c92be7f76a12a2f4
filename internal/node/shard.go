package node

import (
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/optimal"
	"repro/internal/stats"
)

// domainSeedBase offsets the per-domain RNG seed splits away from the
// seed domains the experiment runners already use (runner tasks use the
// plain index, scenario expansion 1_000_000+run, topology generation
// 2_000_000+run).
const domainSeedBase = 3_000_000

// newSharded builds the sharded form of the emulation: one closed
// sub-emulation per interference domain, each with its own pooled
// engine, MAC, agents, free lists, and RNG (split deterministically from
// the base seed), advanced by runDomains.
//
// The decomposition merges links across interference and shared
// endpoints (optimal.InterferenceDomains), which closes each domain
// under every interaction the emulation has — MAC contention, frame
// forwarding, price earshot, flow paths. Domains therefore exchange no
// events at runtime, and each engine can run to the horizon on its own.
// The decomposition and the per-domain seeds depend only on the topology
// and the base seed — never on Config.Shards, which merely caps the
// worker pool — so the trajectory is bit-identical at any shard count.
func newSharded(net *graph.Network, cfg Config, seed int64, dec *optimal.Domains) *Emulation {
	workers := cfg.Shards
	if workers == ShardsAuto {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Emulation{
		Net:     net,
		cfg:     cfg,
		nodeDom: dec.Node,
		linkDom: dec.Link,
		doms:    make([]*Emulation, dec.Num),
		workers: max(1, min(workers, dec.Num)),
	}
	subCfg := cfg
	subCfg.Shards = 0
	own := make([]bool, net.NumNodes())
	for d := range e.doms {
		for n := range own {
			own[n] = dec.Node[n] == d
		}
		// Each domain works on its own clone: links are deep-copied, so
		// capacity mutations stay domain-local, while the immutable
		// topology (nodes, interference, adjacency) is shared.
		e.doms[d] = newEmulationOwned(net.Clone(), subCfg, stats.SplitSeed(seed, domainSeedBase+d), own)
	}
	// The merged agent view: Agents[n] is node n's agent in its owning
	// domain, so Agent() and post-run measurement work unchanged.
	e.Agents = make([]*Agent, net.NumNodes())
	for n := range e.Agents {
		e.Agents[n] = e.doms[dec.Node[n]].Agents[n]
	}
	return e
}

// runDomains advances every domain engine to t. With one worker the
// domains run in order on the caller's goroutine; otherwise domain d runs
// on worker d mod W. Each domain is touched by exactly one goroutine per
// Run and domains share no state, so the assignment never affects the
// trajectory, and every engine clock ends exactly at t.
func (e *Emulation) runDomains(t float64) {
	if e.workers == 1 {
		for _, d := range e.doms {
			d.Engine.Run(t)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go func() {
			defer wg.Done()
			for d := w; d < len(e.doms); d += e.workers {
				e.doms[d].Engine.Run(t)
			}
		}()
	}
	wg.Wait()
}

// Sharded reports whether this emulation runs the domain-sharded engine.
func (e *Emulation) Sharded() bool { return e.doms != nil }

// NumDomains returns the number of interference domains (1 for the
// classic single-engine emulation).
func (e *Emulation) NumDomains() int {
	if e.doms == nil {
		return 1
	}
	return len(e.doms)
}

// Domain returns domain d's closed sub-emulation. The classic emulation
// is its own (only) domain.
func (e *Emulation) Domain(d int) *Emulation {
	if e.doms == nil {
		return e
	}
	return e.doms[d]
}

// NodeDomain returns the domain owning node n.
func (e *Emulation) NodeDomain(n graph.NodeID) int {
	if e.nodeDom == nil {
		return 0
	}
	return e.nodeDom[n]
}

// LinkDomain returns the domain owning link l.
func (e *Emulation) LinkDomain(l graph.LinkID) int {
	if e.linkDom == nil {
		return 0
	}
	return e.linkDom[l]
}

// Workers returns the worker-goroutine cap of the sharded engine (1 for
// the classic emulation).
func (e *Emulation) Workers() int { return max(1, e.workers) }
