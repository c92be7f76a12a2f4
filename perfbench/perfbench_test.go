package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", 100*c.q, got, err, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// p90 of n samples has n - ceil(0.9 n) beyond it: 10 at n = 100.
	if _, err := percentile(seq(100), 0.9); err != nil {
		t.Errorf("p90 of 100 samples: %v", err)
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must fail")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		got, err := quartiles(c.xs)
		if err != nil || got != c.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample must fail")
	}
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || sp != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v, %v", sp, err)
	}
}

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "runner.sweep", start: at(0), end: at(10), parent: -1},
		// Two workers' replications overlap on [3, 5]; the covered part
		// is their union [1, 8], not the 4 + 5 ms they sum to.
		{name: "runner.rep", start: at(1), end: at(5), parent: 0},
		{name: "runner.rep", start: at(3), end: at(8), parent: 0},
		// A child running past its parent is clipped to it.
		{name: "runner.rep", start: at(9), end: at(12), parent: 0},
		{name: "sim.run", start: at(2), end: at(4), parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{at(2), at(2), at(5), at(3), at(2)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, self[i], want[i])
		}
	}
	a := analyze(spans)
	if got := a.layerSelf()["runner"]; got != at(12) {
		t.Errorf("runner self time = %v, want 12ms", got)
	}
	// Coverage of the replication spans: the sim.run child's 2 ms of
	// self time over the three replications' 4 + 5 + 3 ms.
	if got := a.coverage("runner.rep"); got != 2.0/12 {
		t.Errorf("coverage = %v, want %v", got, 2.0/12)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, "runner.rep", -1)
	r := &repTrace{t: tr, trace: 7, cur: root}
	r.do("scenario.run", func() { r.do("sim.run", func() {}) })
	r.do("scenario.collect", func() {})
	tr.end(root)
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	wantParent := []int{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.parent != wantParent[i] || s.trace != 7 || s.end < s.start {
			t.Errorf("span %d %s: parent %d trace %d [%v, %v]", i, s.name, s.parent, s.trace, s.start, s.end)
		}
	}
	if r.cur != root {
		t.Errorf("current span after nesting = %d, want the root", r.cur)
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) ([]byte, [][]byte, []byte) {
		t.Helper()
		sc, err := fleetScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := fleetSpecs(seed)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "history.wal")
		if err := seedWAL(path, seed, 20, sc); err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sc, specs, wal
	}
	sc1, specs1, wal1 := gen(5)
	sc2, specs2, wal2 := gen(5)
	if !bytes.Equal(sc1, sc2) || !bytes.Equal(wal1, wal2) {
		t.Error("the same seed gave different scenario or WAL bytes")
	}
	for i := range specs1 {
		if !bytes.Equal(specs1[i], specs2[i]) {
			t.Errorf("spec %d differs between two generations at one seed", i)
		}
	}
	sc3, specs3, wal3 := gen(6)
	if bytes.Equal(sc1, sc3) || bytes.Equal(specs1[0], specs3[0]) || bytes.Equal(wal1, wal3) {
		t.Error("another seed gave identical inputs")
	}

	// Every seed draws the same mix of sweep sizes.
	runs := map[int]int{}
	pairs := map[string]int{}
	for _, raw := range specs1 {
		var s fleetSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		runs[s.Runs]++
		names := strings.Split(s.Schemes, ",")
		if names[0] > names[1] {
			names[0], names[1] = names[1], names[0]
		}
		pairs[names[0]+","+names[1]]++
	}
	if runs[2] != fleetPoolSize/3 || runs[3] != 2*fleetPoolSize/3 {
		t.Errorf("runs mix %v", runs)
	}
	if len(pairs) != 6 {
		t.Errorf("scheme pairs %v, want all 6 pairs", pairs)
	}
	for p, n := range pairs {
		if n != fleetPoolSize/6 {
			t.Errorf("pair %s appears %d times, want %d", p, n, fleetPoolSize/6)
		}
	}
}

func TestDigestGate(t *testing.T) {
	results := map[int][]byte{0: []byte(`{"a":1}`), 1: []byte(`{"b":2}`)}
	d, err := digestOf(results, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := digestOf(results, 3); err == nil {
		t.Error("digest over a missing sweep must fail")
	}
	book := digestBook{DefaultSeed: 1, HeldOutSeed: 97,
		Digests: map[string]map[string]string{"w": {"1": d}}}
	if err := book.check("w", 1, d); err != nil {
		t.Errorf("recorded digest rejected: %v", err)
	}
	tampered := []byte(d)
	tampered[0] ^= 1
	if err := book.check("w", 1, string(tampered)); err == nil {
		t.Error("a tampered digest must be rejected")
	}
	results[1] = []byte(`{"b":3}`)
	changed, _ := digestOf(results, 2)
	if err := book.check("w", 1, changed); err == nil {
		t.Error("a changed result must be rejected")
	}
	if err := book.check("w", 97, d); err == nil {
		t.Error("a pinned seed without a recorded digest must be rejected")
	}
	if err := book.check("w", 5, "anything"); err != nil {
		t.Errorf("an unpinned seed must pass: %v", err)
	}

	shipped, err := loadDigests(digestJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, seed := range []int64{shipped.DefaultSeed, shipped.HeldOutSeed} {
			if len(shipped.Digests[name][strconv.FormatInt(seed, 10)]) != 64 {
				t.Errorf("digests.json lacks %s at seed %d", name, seed)
			}
		}
	}
}

// The traced run must reproduce the entry points' results bit for bit.
func TestTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the program")
	}
	// The churn workload reads the shipped scenarios from the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	ctx := context.Background()
	for _, w := range []workload{newAnalytic(3), newTestbed(3), newChurn(3)} {
		if c, ok := w.(*churn); ok {
			if err := c.setup(ctx); err != nil {
				t.Fatal(err)
			}
		}
		want, _, err := w.sweep(ctx, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := w.traced(ctx, 0, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T: traced sweep differs from the entry point's\n got %s\nwant %s", w, got, want)
		}
		if cov := analyze(tr.spans).coverage("runner.rep"); cov < 0.9 || cov > 1 {
			t.Errorf("%T: trace coverage %v", w, cov)
		}
	}
}

// BENCHMARK.json must name exactly the metrics a run reports, with their units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bm struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)
	known := map[string]bool{}
	for _, name := range workloadNames {
		known[name] = true
	}
	for _, w := range bm.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}
