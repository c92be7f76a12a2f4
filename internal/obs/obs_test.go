package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("empower_events_fired_total", "events fired")
	c.Add(3)
	c.Inc()
	g := r.Gauge("empower_queue_depth", "queue depth", Label{"link", "4"})
	g.Set(2)
	g.Max(7)
	g.Max(1)
	h := r.Histogram("empower_window_depth", "cross depth", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE empower_events_fired_total counter",
		"empower_events_fired_total 4",
		`empower_queue_depth{link="4"} 7`,
		`empower_window_depth_bucket{le="1"} 1`,
		`empower_window_depth_bucket{le="10"} 2`,
		`empower_window_depth_bucket{le="+Inf"} 3`,
		"empower_window_depth_sum 105.5",
		"empower_window_depth_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Errorf("Lint rejected valid snapshot: %v", err)
	}
}

func TestRegistryMergeCommutes(t *testing.T) {
	mk := func(c, g float64, obs []float64) *Registry {
		r := NewRegistry()
		r.Counter("c_total", "").Add(c)
		r.Gauge("g", "").Set(g)
		h := r.Histogram("h", "", []float64{1, 2})
		for _, v := range obs {
			h.Observe(v)
		}
		return r
	}
	a1, b1 := mk(2, 5, []float64{0.5, 3}), mk(3, 4, []float64{1.5})
	a2, b2 := mk(2, 5, []float64{0.5, 3}), mk(3, 4, []float64{1.5})

	m1 := NewRegistry()
	m1.Merge(a1)
	m1.Merge(b1)
	m2 := NewRegistry()
	m2.Merge(b2)
	m2.Merge(a2)

	var s1, s2 bytes.Buffer
	m1.WritePrometheus(&s1)
	m2.WritePrometheus(&s2)
	if s1.String() != s2.String() {
		t.Errorf("merge not commutative:\n%s\nvs\n%s", s1.String(), s2.String())
	}
	if !strings.Contains(s1.String(), "c_total 5") {
		t.Errorf("counters should sum: %s", s1.String())
	}
	if !strings.Contains(s1.String(), "\ng 5\n") {
		t.Errorf("gauges should max: %s", s1.String())
	}
}

func TestLintRejects(t *testing.T) {
	for name, snap := range map[string]string{
		"nan":       "m_total NaN\n",
		"dup":       "a 1\na 1\n",
		"bad-name":  "9metric 1\n",
		"no-value":  "lonely\n",
		"empty":     "# only comments\n",
		"bad-float": "m notanumber\n",
	} {
		if err := Lint([]byte(snap)); err == nil {
			t.Errorf("%s: Lint accepted %q", name, snap)
		}
	}
	if err := Lint([]byte("# HELP m h\n# TYPE m counter\nm 1\n")); err != nil {
		t.Errorf("Lint rejected valid input: %v", err)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(1) // rounds up to 64
	if r.Cap() != 64 {
		t.Fatalf("Cap = %d, want 64", r.Cap())
	}
	for i := 0; i < 100; i++ {
		r.Record(float64(i), RecTimerFire, int32(i), 0, 0)
	}
	if r.Total() != 100 {
		t.Fatalf("Total = %d", r.Total())
	}
	tail := r.Tail(8)
	if len(tail) != 8 {
		t.Fatalf("Tail(8) len = %d", len(tail))
	}
	for i, rec := range tail {
		if want := float64(92 + i); rec.At != want {
			t.Errorf("tail[%d].At = %g, want %g", i, rec.At, want)
		}
	}
	// Tail larger than held returns everything held (ring capacity).
	if got := len(r.Tail(1000)); got != 64 {
		t.Errorf("Tail(1000) len = %d, want 64", got)
	}
}

func TestRecorderZeroAlloc(t *testing.T) {
	r := NewRecorder(256)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(1.5, RecDeliver, 3, 0, 8192)
	})
	if allocs != 0 {
		t.Errorf("Record allocates %v/op, want 0", allocs)
	}
}

func TestChromeTraceParses(t *testing.T) {
	rec := NewRecorder(64)
	rec.Record(0.5, RecTxStart, 1, 0, 8192)
	rec.Record(0.6, RecDeliver, 1, 0, 8192)
	rec.Record(0.7, RecDrop, 2, 1, 8192)
	rec.Record(0.8, RecReroute, 0, 2, 0)
	rec.Record(0.9, RecScenarioEvent, 3, 4, 0)
	rec.Record(1.1, RecTimerFire, 0, 0, 0)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, [][]Record{rec.Tail(64), nil}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 6 records + 2 thread_name metadata events.
	if len(events) != 8 {
		t.Fatalf("got %d events, want 8", len(events))
	}
	for _, ev := range events {
		if _, ok := ev["ph"]; !ok {
			t.Errorf("event missing ph: %v", ev)
		}
	}
}

func TestFormatTail(t *testing.T) {
	recs := []Record{
		{At: 1.25, Kind: RecDrop, A: 7, B: 2, V: 8192},
		{At: 1.5, Kind: RecReroute, A: 0, B: 3},
	}
	out := FormatTail(1, recs)
	if !strings.Contains(out, "dom=1 t=1.250000 drop link=7 reason=2") {
		t.Errorf("unexpected tail:\n%s", out)
	}
	if !strings.Contains(out, "reroute flow=0 routes=3") {
		t.Errorf("unexpected tail:\n%s", out)
	}
}

func TestPhasesBreakdown(t *testing.T) {
	var p Phases
	p.AddBind(100 * time.Millisecond)
	p.AddRun(time.Second)
	p.AddRun(time.Second)
	p.AddCollect(50 * time.Millisecond)
	b := p.Breakdown()
	if math.Abs(b.BindSeconds-0.1) > 1e-9 || math.Abs(b.RunSeconds-2) > 1e-9 || math.Abs(b.CollectSeconds-0.05) > 1e-9 {
		t.Errorf("breakdown = %+v", b)
	}
	var nilP *Phases
	nilP.AddRun(time.Second) // must not panic
	if nilP.Breakdown() != (PhaseBreakdown{}) {
		t.Error("nil breakdown not zero")
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressLine(&buf, "figure4")
	base := time.Unix(1000, 0)
	p.now = func() time.Time { return base }
	p.start = base
	p.Update(0, 10)
	base = base.Add(2 * time.Second)
	p.Update(4, 10)
	out := buf.String()
	if !strings.Contains(out, "figure4") || !strings.Contains(out, "4/10") {
		t.Errorf("progress output %q", out)
	}
	if !strings.Contains(out, "2.0 reps/s") {
		t.Errorf("rate missing from %q", out)
	}
	if !strings.Contains(out, "ETA 3s") {
		t.Errorf("ETA missing from %q", out)
	}
	p.Finish()
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("Finish should newline-terminate")
	}
}

func TestEmitterFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/metrics.prom"
	agg := NewAggregator()
	r := NewRegistry()
	r.Counter("empower_test_total", "t").Add(5)
	agg.Add(r)
	e, err := StartEmitter(path, agg, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "empower_test_total 5") {
		t.Errorf("snapshot file: %s", data)
	}
	if err := Lint(data); err != nil {
		t.Errorf("Lint: %v", err)
	}
	// Empty target is a no-op.
	if e, err := StartEmitter("", agg, 0); e != nil || err != nil {
		t.Errorf("empty target: %v %v", e, err)
	}
}

func TestLooksLikeHostPort(t *testing.T) {
	for target, want := range map[string]bool{
		":9090":          true,
		"localhost:9090": true,
		"metrics.prom":   false,
		"out/m.prom":     false,
		"dir/m:1":        false,
	} {
		if got := looksLikeHostPort(target); got != want {
			t.Errorf("looksLikeHostPort(%q) = %v, want %v", target, got, want)
		}
	}
}
