package invariant

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
)

// rig is a two-hop emulation a → b → c over two routes (PLC or WiFi on
// the first hop, WiFi on the second) carrying one saturated
// congestion-controlled flow, with a checker attached.
type rig struct {
	em     *node.Emulation
	c      *Checker
	flow   *node.Flow
	a, b   graph.NodeID
	dst    graph.NodeID
	routes []graph.Path
}

func newRig(t *testing.T, estimation bool) *rig {
	t.Helper()
	bld := graph.NewBuilder(nil)
	a := bld.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
	b := bld.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := bld.AddNode("c", 20, 0, graph.TechWiFi)
	plcAB, _ := bld.AddDuplex(a, b, graph.TechPLC, 10)
	wifiAB, _ := bld.AddDuplex(a, b, graph.TechWiFi, 15)
	wifiBC, _ := bld.AddDuplex(b, c, graph.TechWiFi, 30)
	routes := []graph.Path{{plcAB, wifiBC}, {wifiAB, wifiBC}}
	em := node.NewEmulation(bld.Build(), node.Config{Estimation: estimation}, 1)
	fl, err := em.AddFlow(node.FlowSpec{Src: a, Dst: c, Routes: routes, Kind: node.TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{em: em, flow: fl, a: a, b: b, dst: c, routes: routes}
	r.c = Attach(em, Config{Flows: func(int) []FlowInfo {
		return []FlowInfo{{Name: "f", Flow: fl, Src: a, Dst: c}}
	}})
	return r
}

// fired returns the violations of the named check.
func fired(vs []Violation, check string) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Check == check {
			out = append(out, v)
		}
	}
	return out
}

// TestCleanRunHasNoViolations is the control for the tests below: the
// same rig, left alone, trips no check, so each violation they provoke
// is the checker reacting to the planted state.
func TestCleanRunHasNoViolations(t *testing.T) {
	for _, est := range []bool{false, true} {
		r := newRig(t, est)
		r.em.Run(10)
		if vs := r.c.Final(); len(vs) != 0 {
			t.Fatalf("estimation=%v: clean run reported %v", est, vs)
		}
	}
}

// TestConservationViolations: a relay that loses track of one packet,
// and a sink that claims more deliveries than the source injected, each
// trip their conservation check.
func TestConservationViolations(t *testing.T) {
	r := newRig(t, false)
	r.em.Run(3)
	r.em.Agent(r.b).DataIn++ // one packet in, never consumed, forwarded or dropped
	r.em.Run(4)
	vs := fired(r.c.Final(), "flow-conservation")
	if len(vs) == 0 || !strings.Contains(vs[0].Detail, "node 1") {
		t.Fatalf("relay conservation breach not reported: %v", r.c.Violations())
	}

	r = newRig(t, false)
	r.em.Run(3)
	s := r.em.Agent(r.dst).PeekSink(r.a, r.flow.ID)
	s.TotalPackets = r.flow.InjectedPackets() + 1
	if vs := fired(r.c.Final(), "sink-conservation"); len(vs) == 0 {
		t.Fatalf("sink delivering more than injected not reported: %v", r.c.Violations())
	}
}

// TestDeadLinkSilence: a link recorded dead (and idle) at one tick that
// delivers packets before the next, with no capacity transition in
// between, is reported. A link that really fails is silent and is not.
func TestDeadLinkSilence(t *testing.T) {
	r := newRig(t, false)
	r.em.Run(3)
	dc := r.c.doms[0]
	l := r.routes[1][1] // b→c WiFi, busy with both routes' traffic
	i := -1
	for k, ll := range dc.links {
		if ll == l {
			i = k
		}
	}
	dc.prev[i].dead, dc.prev[i].busy = true, false // plant: "dead at the last tick"
	dc.checkLinks()
	if len(fired(dc.violations, "dead-link-delivery")) != 0 {
		t.Fatal("reported before the dead link delivered anything")
	}
	r.em.Run(3.05)
	dc.checkLinks()
	if len(fired(dc.violations, "dead-link-delivery")) == 0 {
		t.Fatalf("dead link delivering packets not reported: %v", dc.violations)
	}

	// Control: the same link genuinely failing stays silent.
	r = newRig(t, false)
	r.em.Run(3)
	r.em.SetLinkCapacity(l, 0)
	r.em.Run(6)
	if vs := r.c.Final(); len(vs) != 0 {
		t.Fatalf("a genuinely failed link was accused: %v", vs)
	}
}

// TestRateBound: a flow still sending at its pre-failure rate after its
// routes' estimated capacity collapsed trips the rate bound, but only
// after rateStrikes consecutive ticks.
func TestRateBound(t *testing.T) {
	r := newRig(t, false)
	r.em.Run(5)
	if r.flow.TotalRate() <= rateFloor {
		t.Fatalf("setup: flow rate %.2f Mbps too low to exceed the floor", r.flow.TotalRate())
	}
	// Without estimation the checker's capacity is the ground truth:
	// shrink the shared last hop and check before the controller reacts.
	r.em.SetLinkCapacity(r.routes[0][1], 0.01)
	dc := r.c.doms[0]
	now := r.em.Engine.Now()
	for k := 1; k < rateStrikes; k++ {
		dc.checkFlows(now)
		if len(fired(dc.violations, "rate-bound")) != 0 {
			t.Fatalf("rate bound fired after %d strikes, want %d", k, rateStrikes)
		}
	}
	dc.checkFlows(now)
	vs := fired(dc.violations, "rate-bound")
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "flow f") {
		t.Fatalf("rate above the capacity bound not reported: %v", dc.violations)
	}
}

// TestMonotoneTime: a clock observed going backwards is reported.
func TestMonotoneTime(t *testing.T) {
	r := newRig(t, false)
	r.em.Run(2)
	r.c.doms[0].lastNow = 5
	if vs := fired(r.c.Final(), "monotone-time"); len(vs) == 0 {
		t.Fatalf("backwards clock not reported: %v", r.c.Violations())
	}
}
