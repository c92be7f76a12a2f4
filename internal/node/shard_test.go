package node

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// clusterNet builds k disjoint diamond clusters (a→{b,c}→d, duplex WiFi)
// spaced far beyond the sensing radius, so the network decomposes into k
// interference domains. It returns the network and, per cluster, the
// flow endpoints with two disjoint routes.
type clusterFlow struct {
	src, dst graph.NodeID
	routes   []graph.Path
}

func clusterNet(k int) (*graph.Network, []clusterFlow) {
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50}})
	type quad struct{ a, bb, c, d graph.NodeID }
	quads := make([]quad, k)
	type linkPair struct{ ab, bd, ac, cd graph.LinkID }
	pairs := make([]linkPair, k)
	for i := 0; i < k; i++ {
		ox := float64(i) * 1000
		q := quad{
			a:  b.AddNode(fmt.Sprintf("a%d", i), ox, 0, graph.TechWiFi),
			bb: b.AddNode(fmt.Sprintf("b%d", i), ox+10, 10, graph.TechWiFi),
			c:  b.AddNode(fmt.Sprintf("c%d", i), ox+10, -10, graph.TechWiFi),
			d:  b.AddNode(fmt.Sprintf("d%d", i), ox+20, 0, graph.TechWiFi),
		}
		quads[i] = q
		cap := 30 + 6*float64(i%3)
		pairs[i].ab, _ = b.AddDuplex(q.a, q.bb, graph.TechWiFi, cap)
		pairs[i].bd, _ = b.AddDuplex(q.bb, q.d, graph.TechWiFi, cap)
		pairs[i].ac, _ = b.AddDuplex(q.a, q.c, graph.TechWiFi, cap-6)
		pairs[i].cd, _ = b.AddDuplex(q.c, q.d, graph.TechWiFi, cap-6)
	}
	net := b.Build()
	flows := make([]clusterFlow, k)
	for i := range flows {
		flows[i] = clusterFlow{
			src: quads[i].a,
			dst: quads[i].d,
			routes: []graph.Path{
				{pairs[i].ab, pairs[i].bd},
				{pairs[i].ac, pairs[i].cd},
			},
		}
	}
	return net, flows
}

// shardedFingerprint runs the cluster workload at a shard count,
// advancing in Run calls of `step` seconds, and folds the full observable
// trajectory — delivered bytes, exact congestion-control rates,
// forwarding counters — into a string. The fifth cluster carries no
// flow; after every Run each domain clock, the idle one included, must
// sit exactly at the run horizon.
func shardedFingerprint(t *testing.T, shards int, seconds, step float64) string {
	t.Helper()
	net, cflows := clusterNet(5)
	em := NewEmulation(net, Config{Estimation: true, Shards: shards}, 77)
	var flows []*Flow
	for _, cf := range cflows[:4] {
		fl, err := em.AddFlow(FlowSpec{Src: cf.src, Dst: cf.dst, Routes: cf.routes, Kind: TrafficSaturated}, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	for now := step; now <= seconds+1e-9; now += step {
		em.Run(now)
		for d := 0; d < em.NumDomains(); d++ {
			if c := em.Domain(d).Engine.Now(); c != now {
				t.Fatalf("shards=%d: domain %d clock %g after Run(%g)", shards, d, c, now)
			}
		}
	}
	out := ""
	for i, fl := range flows {
		s := em.Agent(fl.Dst).SinkFor(fl.Src, fl.ID)
		out += fmt.Sprintf("flow%d bytes=%d rates=%v\n", i, s.TotalBytes, fl.Rates())
	}
	for n, a := range em.Agents {
		if a.Forwarded+a.Consumed > 0 {
			out += fmt.Sprintf("node%d fwd=%d consumed=%d\n", n, a.Forwarded, a.Consumed)
		}
	}
	return out
}

// TestShardedDeterminismAcrossShardCounts is the tentpole contract at
// the node layer: the same seed yields a bit-identical trajectory at any
// shard count, because the domain decomposition and the per-domain seed
// splits depend only on the topology — Shards merely caps the worker
// pool. Advancing in 0.25-s Run calls lands on the same trajectory as one
// Run call.
func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	seconds := 12.0
	if testing.Short() {
		seconds = 4.0
	}
	ref := shardedFingerprint(t, 1, seconds, seconds)
	for _, shards := range []int{2, 4, ShardsAuto} {
		if got := shardedFingerprint(t, shards, seconds, seconds); got != ref {
			t.Fatalf("shards=%d diverged from shards=1:\n--- shards=1\n%s--- shards=%d\n%s", shards, ref, shards, got)
		}
	}
	if rerun := shardedFingerprint(t, 4, seconds, seconds); rerun != ref {
		t.Fatalf("shards=4 rerun diverged (nondeterminism within a shard count)")
	}
	for _, shards := range []int{1, 4} {
		if got := shardedFingerprint(t, shards, seconds, 0.25); got != ref {
			t.Fatalf("shards=%d in 0.25-s Run steps diverged from one Run call:\n--- one call\n%s--- steps\n%s", shards, ref, got)
		}
	}
}

// TestShardedSingleDomainFallsBack: a connected topology is one
// interference domain, so any Shards value runs the classic single
// engine and reproduces the Shards=0 trajectory byte-for-byte.
func TestShardedSingleDomainFallsBack(t *testing.T) {
	run := func(shards int) (*Emulation, string) {
		net, a, c, routes := figure1()
		em := NewEmulation(net, Config{Estimation: true, Shards: shards}, 21)
		fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
		if err != nil {
			t.Fatal(err)
		}
		em.Run(6)
		s := em.Agent(c).SinkFor(a, fl.ID)
		return em, fmt.Sprintf("bytes=%d rates=%v", s.TotalBytes, fl.Rates())
	}
	em4, got := run(4)
	if em4.Sharded() {
		t.Fatal("connected topology came out sharded")
	}
	if em4.NumDomains() != 1 {
		t.Fatalf("NumDomains = %d, want 1", em4.NumDomains())
	}
	if _, want := run(0); got != want {
		t.Fatalf("shards=4 trajectory %q differs from the classic engine's %q", got, want)
	}
}

// TestShardedDispatch pins the dispatcher surface: domain lookups,
// capacity mutation routing (with the top-level mirror), and the merged
// agent view.
func TestShardedDispatch(t *testing.T) {
	net, cflows := clusterNet(3)
	em := NewEmulation(net, Config{Estimation: true, Shards: 2}, 5)
	if !em.Sharded() || em.NumDomains() != 3 {
		t.Fatalf("sharded=%v domains=%d, want true/3", em.Sharded(), em.NumDomains())
	}
	if em.Workers() != 2 {
		t.Fatalf("workers = %d, want 2", em.Workers())
	}
	// Node/link ownership is cluster-contiguous by construction.
	for i, cf := range cflows {
		if em.NodeDomain(cf.src) != i || em.NodeDomain(cf.dst) != i {
			t.Fatalf("cluster %d endpoints mapped to domains %d/%d", i, em.NodeDomain(cf.src), em.NodeDomain(cf.dst))
		}
		for _, l := range cf.routes[0] {
			if em.LinkDomain(l) != i {
				t.Fatalf("cluster %d link %d mapped to domain %d", i, l, em.LinkDomain(l))
			}
		}
	}
	// A capacity change lands in the owning domain's clone, mirrors into
	// the top-level network, and leaves other domains untouched.
	l := cflows[1].routes[0][0]
	em.SetLinkCapacity(l, 0)
	if em.Net.Link(l).Capacity != 0 {
		t.Fatal("top-level capacity not mirrored")
	}
	if em.Domain(1).Net.Link(l).Capacity != 0 {
		t.Fatal("owning domain's clone not mutated")
	}
	if em.Domain(0).Net.Link(l).Capacity == 0 {
		t.Fatal("foreign domain's clone mutated")
	}
	// The merged agent view serves every node, owned by its domain.
	for n := 0; n < net.NumNodes(); n++ {
		a := em.Agent(graph.NodeID(n))
		if a == nil {
			t.Fatalf("merged agent view has no agent for node %d", n)
		}
		if em.Domain(em.NodeDomain(graph.NodeID(n))).Agents[n] != a {
			t.Fatalf("node %d agent not owned by its domain", n)
		}
	}
}

// TestAllocsShardedRunSlot extends the zero-alloc steady-state guard to
// the sharded engine: with a sequential worker (Shards=1 spawns no
// goroutines), a warm multi-domain emulation runs a full report slot
// without a single heap allocation — each domain engine's pools work
// exactly as in the classic engine, and advancing the domains in turn
// is allocation-free.
func TestAllocsShardedRunSlot(t *testing.T) {
	net, cflows := clusterNet(2)
	em := NewEmulation(net, Config{Estimation: true, Shards: 1}, 21)
	var flows []*Flow
	for _, cf := range cflows {
		fl, err := em.AddFlow(FlowSpec{Src: cf.src, Dst: cf.dst, Routes: cf.routes, Kind: TrafficSaturated}, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	em.Run(5) // warm: pools, rings, report tables, reverse-path caches
	for _, fl := range flows {
		fl.Stop()
	}
	em.Run(5.05) // drain in-flight frames

	// Pin the cached reverse paths, as in TestAllocsEmulationReportSlot.
	for _, ag := range em.Agents {
		for _, s := range ag.Sinks() {
			if s.reverse != nil {
				s.reverseAt = 1e18
			}
		}
	}

	slots := 0
	if avg := testing.AllocsPerRun(10, func() {
		slots++
		em.Run(5.05 + 0.1*float64(slots))
	}); avg != 0 {
		t.Errorf("sharded steady-state report slot allocates %v per 100 ms, want 0", avg)
	}
}
