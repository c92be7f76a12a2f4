package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// fleetWL is the fleet-daemon workload: an in-process fleet.New +
// Server.Run on a loopback listener with two workers, driven over HTTP
// by two closed-loop clients. Each client submits a sweep, streams its
// replications until the sweep is terminal, fetches the merged results,
// then submits the next. The daemon opens a WAL that already holds a
// history of historySweeps done sweeps, so set-up pays its replay.
type fleetWL struct {
	seed    int64
	specs   [][]byte
	base    string // scratch directory under .bench_build
	history string // the seeded history WAL, copied for every set-up

	srv    *fleet.Server
	stop   context.CancelFunc
	done   chan error
	url    string
	client *http.Client

	replayMS      []float64
	replayRecords int
	sweeps        atomic.Int64

	passStart fleetSnap
	passes    []fleetSnap // deltas, one per pass

	mu  sync.Mutex
	ids map[int]string // daemon sweep ID of sweep k in the latest pass

	refOnce sync.Once
	refs    [][]byte
	refMS   []float64 // in-process ChurnFailoverCtx time per spec
	refErr  error
}

// fleetSnap is a reading of the daemon's WAL and /metrics counters.
type fleetSnap struct {
	records     int
	bytes       int64
	jobSeconds  float64
	retries     float64
	wall        time.Duration
	at          time.Time
	sweepsCount int64
}

const fleetWorkers = 2

func newFleet(seed int64) *fleetWL { return &fleetWL{seed: seed, ids: map[int]string{}} }

func (w *fleetWL) clients() int    { return 2 }
func (w *fleetWL) workers() int    { return fleetWorkers }
func (w *fleetWL) gateSweeps() int { return fleetPoolSize }

// setup generates the inputs once (scenario, spec pool, seeded history
// WAL — the seeding is not part of the timed set-up), then starts a
// fresh daemon on a copy of the history and runs one warm-up sweep.
func (w *fleetWL) setup(ctx context.Context) error {
	if w.base == "" {
		if err := w.generate(); err != nil {
			return err
		}
	}
	w.stopDaemon()
	dir, err := os.MkdirTemp(w.base, "daemon-")
	if err != nil {
		return err
	}
	wal := filepath.Join(dir, "fleet.wal")
	data, err := os.ReadFile(w.history)
	if err != nil {
		return err
	}
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := fleet.New(fleet.Config{WALPath: wal, Workers: fleetWorkers})
	if err != nil {
		return err
	}
	w.replayMS = append(w.replayMS, ms(time.Since(t0)))
	w.replayRecords, _ = srv.Store().WALStats()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	runCtx, stop := context.WithCancel(context.Background())
	w.srv, w.stop, w.done = srv, stop, make(chan error, 1)
	go func() { w.done <- srv.Run(runCtx, ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	_, _, err = w.do(ctx, w.specs[0], nil, 0)
	return err
}

func (w *fleetWL) generate() error {
	var err error
	if w.specs, err = fleetSpecs(w.seed); err != nil {
		return err
	}
	sc, err := fleetScenario(w.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if w.base, err = os.MkdirTemp(".bench_build", "fleet-"); err != nil {
		return err
	}
	w.history = filepath.Join(w.base, "history.wal")
	t0 := time.Now()
	if err := seedWAL(w.history, w.seed, historySweeps, sc); err != nil {
		return err
	}
	fmt.Printf("history WAL: %d done sweeps seeded in %.0f ms (untimed input generation)\n", historySweeps, ms(time.Since(t0)))
	return nil
}

func (w *fleetWL) stopDaemon() {
	if w.srv == nil {
		return
	}
	w.stop()
	if err := <-w.done; err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fleet daemon shutdown:", err)
	}
	w.client.CloseIdleConnections()
	w.srv = nil
}

func (w *fleetWL) close() error {
	w.stopDaemon()
	if w.base != "" {
		return os.RemoveAll(w.base)
	}
	return nil
}

func (w *fleetWL) sweep(ctx context.Context, k int, _ func(time.Duration)) ([]byte, int, error) {
	return w.do(ctx, w.specs[k%len(w.specs)], nil, k)
}

func (w *fleetWL) traced(ctx context.Context, k int, tr *tracer) ([]byte, error) {
	b, _, err := w.do(ctx, w.specs[k%len(w.specs)], tr, k)
	return b, err
}

// do submits one sweep, streams it to its terminal state and fetches
// the merged results. With a tracer it records a span around each call.
func (w *fleetWL) do(ctx context.Context, spec []byte, tr *tracer, k int) ([]byte, int, error) {
	t0 := time.Now()
	var r *repTrace
	if tr != nil {
		root := tr.begin(k, "bench.sweep", -1)
		defer tr.end(root)
		r = &repTrace{t: tr, trace: k, cur: root}
	}
	step := func(name string, fn func() error) error {
		if r == nil {
			return fn()
		}
		var err error
		r.do(name, func() { err = fn() })
		return err
	}

	var st fleet.Status
	err := step("fleet.submit", func() error {
		body, err := w.call(ctx, http.MethodPost, "/sweeps", spec, http.StatusCreated)
		if err != nil {
			return err
		}
		return json.Unmarshal(body, &st)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("submit: %w", err)
	}
	w.mu.Lock()
	w.ids[k] = st.ID
	w.mu.Unlock()
	var first time.Duration
	err = step("fleet.stream", func() error {
		var err error
		first, err = w.stream(ctx, st.ID, t0)
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("sweep %s: %w", st.ID, err)
	}
	if tr != nil && first > 0 {
		tr.add("fleet.first_result_ms", ms(first))
		tr.add("fleet.first_results", 1)
	}
	var out []byte
	err = step("fleet.results", func() error {
		var err error
		out, err = w.call(ctx, http.MethodGet, "/sweeps/"+st.ID+"/results", nil, http.StatusOK)
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("results of %s: %w", st.ID, err)
	}
	w.sweeps.Add(1)
	return bytes.TrimSuffix(out, []byte("\n")), st.Total, nil
}

// call makes one request and insists on the expected status.
func (w *fleetWL) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// stream follows a sweep's SSE stream until its terminal event and
// returns when, after t0, the first replication arrived.
func (w *fleetWL) stream(ctx context.Context, id string, t0 time.Time) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/sweeps/"+id+"/results?stream=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	var first time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		event, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch event {
		case "rep":
			if first == 0 {
				first = time.Since(t0)
			}
		case "done":
			_, err := io.Copy(io.Discard, resp.Body)
			return first, err
		default:
			return first, fmt.Errorf("stream ended with event %q", event)
		}
	}
	if err := sc.Err(); err != nil {
		return first, err
	}
	return first, fmt.Errorf("stream closed before a terminal event")
}

// beginPass and endPass bracket a pass with readings of the daemon's
// WAL and counters, so per-sweep WAL cost and worker busy time are
// measured over one pass only.
func (w *fleetWL) beginPass() { w.passStart = w.snap() }

func (w *fleetWL) endPass() {
	end := w.snap()
	s := w.passStart
	w.passes = append(w.passes, fleetSnap{
		records: end.records - s.records, bytes: end.bytes - s.bytes,
		jobSeconds: end.jobSeconds - s.jobSeconds, retries: end.retries - s.retries,
		wall: end.at.Sub(s.at), sweepsCount: end.sweepsCount - s.sweepsCount,
	})
}

func (w *fleetWL) snap() fleetSnap {
	s := fleetSnap{at: time.Now(), sweepsCount: w.sweeps.Load()}
	s.records, s.bytes = w.srv.Store().WALStats()
	if body, err := w.call(context.Background(), http.MethodGet, "/metrics", nil, http.StatusOK); err == nil {
		s.jobSeconds = promValue(body, "empower_runner_job_seconds_total")
		s.retries = promValue(body, "fleet_rep_retries_total")
	}
	return s
}

// promValue reads an unlabelled sample from Prometheus text (0 if absent).
func promValue(body []byte, name string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// verify computes, untimed, each spec's reference — json.Marshal of the
// in-process ChurnFailoverCtx for the same spec — and requires every
// sweep's merged /results bytes to equal it.
func (w *fleetWL) verify(ctx context.Context, results map[int][]byte) error {
	w.refOnce.Do(func() { w.refErr = w.references(ctx) })
	if w.refErr != nil {
		return w.refErr
	}
	for k, out := range results {
		if !bytes.Equal(out, w.refs[k%len(w.refs)]) {
			return fmt.Errorf("sweep %d: daemon results differ from in-process ChurnFailover of the same spec", k)
		}
	}
	return nil
}

func (w *fleetWL) references(ctx context.Context) error {
	for i, raw := range w.specs {
		var spec fleetSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return err
		}
		sc, err := scenario.Parse(spec.Scenario)
		if err != nil {
			return err
		}
		schemes, err := experiments.ParseSchemes(spec.Schemes)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := experiments.ChurnFailoverCtx(ctx, sc, experiments.ChurnConfig{Seed: spec.Seed, Runs: spec.Runs,
			Schemes: schemes, ManageRoutes: true, Parallel: fleetWorkers})
		if err != nil {
			return fmt.Errorf("reference for spec %d: %w", i, err)
		}
		w.refMS = append(w.refMS, ms(time.Since(t0)))
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, b)
	}
	return nil
}

// daemonRepMS reads, after the window, each of the pass's sweeps' own
// /metrics: the replication count and summed replication wall time the
// daemon's runner recorded through its JobTime hook. It returns each
// sweep's mean replication time in ms.
func (w *fleetWL) daemonRepMS(ctx context.Context, res passResult) ([]float64, error) {
	out := make([]float64, 0, len(res.sweepOf))
	for _, k := range res.sweepOf {
		w.mu.Lock()
		id := w.ids[k]
		w.mu.Unlock()
		body, err := w.call(ctx, http.MethodGet, "/sweeps/"+id+"/metrics", nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		reps := promValue(body, "empower_runner_replications_total")
		if reps == 0 {
			return nil, fmt.Errorf("sweep %s: no replications in its metrics", id)
		}
		out = append(out, 1000*promValue(body, "empower_runner_job_seconds_total")/reps)
	}
	return out, nil
}

// extras reports the per-layer metrics the spans cannot give: the
// daemon's replay, WAL and counters over the untraced pass.
func (w *fleetWL) extras(untraced passResult) map[string]float64 {
	v := map[string]float64{
		"fleet.replay_ms":      median(w.replayMS),
		"fleet.replay_records": float64(w.replayRecords),
	}
	if len(w.passes) > 0 {
		p := w.passes[0]
		if p.sweepsCount > 0 {
			v["fleet.wal_records_per_sweep"] = float64(p.records) / float64(p.sweepsCount)
			v["fleet.wal_bytes_per_sweep"] = float64(p.bytes) / float64(p.sweepsCount)
		}
		v["fleet.retries"] = p.retries
		v["runner.busy_share"] = p.jobSeconds / (p.wall.Seconds() * fleetWorkers)
	}
	if w.refErr == nil && len(w.refs) == len(w.specs) {
		var over []float64
		for i, k := range untraced.sweepOf {
			over = append(over, untraced.sweepMS[i]-w.refMS[k%len(w.specs)])
		}
		v["fleet.overhead_ms"] = median(over)
	}
	return v
}
