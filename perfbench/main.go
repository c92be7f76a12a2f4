// Command perfbench is the repository's benchmark. It drives the
// EMPoWER pipeline in-process through the entry points the CLIs and the
// fleet daemon use, times it from outside, checks the outputs, and in a
// separate traced run splits the time by layer.
//
//	perfbench --workload analytic-sweep --seed 1 --seconds 30 --trace 0
//	perfbench --workload all --seed 1 --seconds 30 --trace 1
//	perfbench --workload churn-failover --seed 1 --seconds 30 --repeat 10
//
// One run prints a human table and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See WORKLOADS.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

var workloadNames = []string{wA, wT, wC, wF}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case wA:
		return newAnalytic(seed), nil
	case wT:
		return newTestbed(seed), nil
	case wC:
		return newChurn(seed), nil
	case wF:
		return newFleet(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
}

// setupReps is how many times a run sets up; setup_s is the median.
func setupReps(name string) int {
	if name == wA {
		return 5
	}
	return 3
}

// minSamples is the sample count a p90 needs: minBeyond samples beyond it.
const minSamples = 10 * minBeyond

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload this many times on consecutive seeds and report the spread")
	flag.Parse()
	if *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *repeat > 0:
		err = repeatRuns(*name, *seed, *seconds, *trace, *repeat)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		var line resultLine
		line, err = runOne(*name, *seed, *seconds, *trace == 1, os.Stdout)
		if err == nil {
			b, merr := json.Marshal(line)
			if merr != nil {
				err = merr
			} else {
				fmt.Println(string(b))
				if !line.Correct {
					os.Exit(1)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOne sets the workload up, measures it, checks its outputs and
// returns the result line; the human report goes to out.
func runOne(name string, seed int64, seconds float64, traced bool, out io.Writer) (resultLine, error) {
	line := resultLine{Metrics: map[string]metricValue{}}
	book, err := loadDigests(digestJSON)
	if err != nil {
		return line, err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return line, err
	}
	defer w.close()
	ctx := context.Background()

	reps := setupReps(name)
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return line, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	fmt.Fprintf(out, "workload %s, seed %d: %d client(s), %d worker(s), closed loop\n", name, seed, w.clients(), w.workers())
	var problems []string
	if traced {
		problems, err = measureTraced(ctx, w, book, name, seed, seconds, &line, out)
	} else {
		problems, err = measureTimed(ctx, w, book, name, seed, seconds, setups, &line, out)
	}
	if err != nil {
		return line, fmt.Errorf("%s: %w", name, err)
	}
	line.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	if line.Attempted == 0 {
		return line, fmt.Errorf("%s: no sweep attempted", name)
	}
	return line, nil
}

// measureTimed runs the timed window with tracing off and fills the
// end-to-end metrics; it returns the correctness problems found.
func measureTimed(ctx context.Context, w workload, book digestBook, name string, seed int64, seconds float64,
	setups []float64, line *resultLine, out io.Writer) ([]string, error) {
	var problems []string
	fl, isFleet := w.(*fleetWL)
	minReps := minSamples
	if isFleet {
		minReps = 0 // the daemon's replication times are read after the window
	}
	res := pass(ctx, w, seconds, 0, minSamples, minReps, w.sweep)
	rss := peakRSSMB()
	line.Attempted, line.Failed = res.attempted, res.failed
	reportFailures(out, res.errs)
	if err := gate(ctx, w, book, name, seed, res, out); err != nil {
		problems = append(problems, err.Error())
	}
	repMS := res.repMS
	if isFleet {
		var err error
		if repMS, err = fl.daemonRepMS(ctx, res); err != nil {
			return nil, err
		}
	}
	vals, err := endToEndValues(res, repMS, setups, rss)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%d sweeps, %d replications in %.2f s\n", len(res.sweepMS), res.reps, res.wall.Seconds())
	fmt.Fprintf(out, "  %-14s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range endToEnd {
		line.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		fmt.Fprintf(out, "  %-14s %14.6g %-6s %s\n", d.name, vals[d.name], d.unit, sampleNote(d.name, res, repMS, setups))
	}
	fmt.Fprintf(out, "  %-14s %14.6g %-6s %d/%d sweeps\n", "failed_frac",
		float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.failed, res.attempted)
	return problems, nil
}

// measureTraced is the traced run. A third of the time finds how many
// sweeps to run untraced; the same sweeps then run traced and once more
// untraced, so the overhead compares two passes of identical work and
// shape, and all three passes must give identical results.
func measureTraced(ctx context.Context, w workload, book digestBook, name string, seed int64, seconds float64,
	line *resultLine, out io.Writer) ([]string, error) {
	var problems []string
	untraced := pass(ctx, w, seconds/3, 0, w.gateSweeps(), 0, w.sweep)
	n := untraced.completed()
	tr := newTracer()
	tracedRes := pass(ctx, w, 0, n, 0, 0, func(ctx context.Context, k int, _ func(time.Duration)) ([]byte, int, error) {
		b, err := w.traced(ctx, k, tr)
		return b, 0, err
	})
	again := pass(ctx, w, 0, n, 0, 0, w.sweep)
	line.Attempted = untraced.attempted + tracedRes.attempted + again.attempted
	line.Failed = untraced.failed + tracedRes.failed + again.failed
	reportFailures(out, append(append(untraced.errs, tracedRes.errs...), again.errs...))
	for k := 0; k < n; k++ {
		if string(tracedRes.results[k]) != string(untraced.results[k]) || string(again.results[k]) != string(untraced.results[k]) {
			problems = append(problems, fmt.Sprintf("sweep %d: traced result differs from the untraced run", k))
		}
	}
	fmt.Fprintf(out, "traced run: %d sweeps untraced in %.2f s, traced in %.2f s, untraced again in %.2f s; results identical: %v\n",
		n, untraced.wall.Seconds(), tracedRes.wall.Seconds(), again.wall.Seconds(), len(problems) == 0)
	if err := gate(ctx, w, book, name, seed, untraced, out); err != nil {
		problems = append(problems, err.Error())
	}
	a := analyze(tr.spans)
	vals := layerValues(w, a, tr, untraced, tracedRes, again)
	printLayerTable(out, name, vals)
	printSelfTimes(out, a)
	for _, d := range perLayer {
		line.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return problems, nil
}

// reportFailures prints failed sweeps. They count in the result line's
// failed field; a missing result also fails the digest if it is gated.
func reportFailures(out io.Writer, errs []error) {
	for _, e := range errs {
		fmt.Fprintln(out, "sweep failed:", e)
	}
}

// gate is the correctness gate of a pass: the digest of its leading
// sweeps for pinned seeds, then the workload's own verification.
func gate(ctx context.Context, w workload, book digestBook, name string, seed int64, res passResult, out io.Writer) error {
	g := w.gateSweeps()
	digest, err := digestOf(res.results, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "result digest of sweeps 0..%d: %s\n", g-1, digest)
	digestErr := book.check(name, seed, digest)
	if digestErr == nil && book.gated(seed) {
		fmt.Fprintf(out, "digest matches the one recorded for seed %d\n", seed)
	}
	return errors.Join(digestErr, w.verify(ctx, res.results))
}

func endToEndValues(res passResult, repMS []float64, setups []float64, rss float64) (map[string]float64, error) {
	v := map[string]float64{
		"reps_per_s":  float64(res.reps) / res.wall.Seconds(),
		"setup_s":     median(setups),
		"peak_rss_mb": rss,
	}
	var err error
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"rep_p50_ms", repMS, 0.5}, {"rep_p90_ms", repMS, 0.9},
		{"sweep_p50_ms", res.sweepMS, 0.5}, {"sweep_p90_ms", res.sweepMS, 0.9},
	} {
		if v[p.name], err = percentile(p.xs, p.q); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return v, nil
}

func sampleNote(metric string, res passResult, repMS, setups []float64) string {
	switch {
	case strings.HasPrefix(metric, "rep_") && len(repMS) == len(res.sweepMS):
		return fmt.Sprintf("n=%d sweeps' mean replication times from the daemon", len(repMS))
	case strings.HasPrefix(metric, "rep_"):
		return fmt.Sprintf("n=%d replications", len(repMS))
	case strings.HasPrefix(metric, "sweep_"):
		return fmt.Sprintf("n=%d sweeps", len(res.sweepMS))
	case metric == "setup_s":
		return fmt.Sprintf("median of n=%d set-ups", len(setups))
	case metric == "reps_per_s":
		return fmt.Sprintf("%d replications / %.2f s", res.reps, res.wall.Seconds())
	}
	return "VmHWM"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// child runs one workload in a fresh process (so its peak RSS is its
// own), copies its report to stdout and returns its result line.
func child(name string, seed int64, seconds float64, trace int) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	outb, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outb), "\n"), "\n")
	last := lines[len(lines)-1]
	os.Stdout.WriteString(strings.Join(lines[:len(lines)-1], "\n") + "\n")
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return line, fmt.Errorf("%s seed %d: no result line: %w", name, seed, err)
	}
	return line, nil
}

func selected(name string) []string {
	if name == "all" {
		return workloadNames
	}
	return []string{name}
}

// runAll runs every workload, each in its own process, and prints one
// summary row per metric and workload.
func runAll(seed int64, seconds float64, trace int) error {
	allCorrect := true
	summary := map[string]resultLine{}
	for _, name := range workloadNames {
		line, err := child(name, seed, seconds, trace)
		if err != nil {
			return err
		}
		summary[name] = line
		allCorrect = allCorrect && line.Correct
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Printf("\nsummary, seed %d (each workload in its own process)\n", seed)
	fmt.Printf("  %-30s", "metric")
	for _, name := range workloadNames {
		fmt.Printf(" %18s", name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("  %-30s", d.name+" ("+d.unit+")")
		for _, name := range workloadNames {
			fmt.Printf(" %18.6g", summary[name].Metrics[d.name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("  %-30s", "correct")
	for _, name := range workloadNames {
		fmt.Printf(" %18v", summary[name].Correct)
	}
	fmt.Println()
	if !allCorrect {
		return fmt.Errorf("a workload failed its correctness gate")
	}
	return nil
}

// repeatRuns runs each selected workload n times on seeds seed..seed+n-1
// and reports each metric's median and interquartile spread, the
// statistic the benchmark's bounds in BENCHMARK.json are judged by.
func repeatRuns(name string, seed int64, seconds float64, trace, n int) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bm struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if json.Unmarshal(data, &bm) == nil {
			for _, m := range bm.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	for _, wl := range selected(name) {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			line, err := child(wl, seed+int64(i), seconds, trace)
			if err != nil {
				return err
			}
			if !line.Correct {
				return fmt.Errorf("%s seed %d: correctness gate failed", wl, seed+int64(i))
			}
			for _, d := range defs {
				vals[d.name] = append(vals[d.name], line.Metrics[d.name].Value)
			}
		}
		fmt.Printf("\nspread of %s over %d seeds from %d\n", wl, n, seed)
		fmt.Printf("  %-30s %14s %10s %8s %s\n", "metric", "median", "iqr/med", "bound", "verdict")
		for _, d := range defs {
			xs := vals[d.name]
			sp, err := spread(xs)
			b, hasBound := bounds[d.name]
			verdict := ""
			switch {
			case err != nil:
				verdict = err.Error()
			case hasBound && sp < b/3:
				verdict = "steady (< bound/3)"
			case hasBound && sp <= b:
				verdict = "within bound, above bound/3"
			case hasBound:
				verdict = "TOO NOISY"
			}
			fmt.Printf("  %-30s %14.6g %10.4f %8.3g %s\n", d.name, median(xs), sp, b, verdict)
		}
	}
	return nil
}
