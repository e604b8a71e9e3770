package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vipipe/internal/obs"
	"vipipe/internal/service"
	"vipipe/internal/service/wire"
	"vipipe/internal/stats"
)

// daemonRate is the open-loop arrival rate in jobs per second.
const daemonRate = 40

// daemonMix drives the real vipiped binary over HTTP: independent users
// submitting a what-if-heavy mix on a Poisson schedule, every job's
// latency taken from its due time to its job.done event on /events.
type daemonMix struct {
	o        opts
	spec     service.ConfigSpec
	wmm, hmm float64 // die size, for overlay discs
}

// configSeeds is the flow-seed range daemon_mix draws from: every seed
// in it classifies violation scenarios at this config, so no whatif or
// sweep job fails for want of an island to raise.
const configSeeds = 400

func newDaemonMix(ctx context.Context, o opts) (*daemonMix, error) {
	seed := 1 + ((o.seed-1)%configSeeds+configSeeds)%configSeeds
	spec := service.ConfigSpec{Small: true, Seed: seed, MCSamples: 32, VISamples: 24, FIRSamples: 8, FIRTaps: 4}
	pl, err := placement(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &daemonMix{o: o, spec: spec, wmm: pl.DieW / 1000, hmm: pl.DieH / 1000}, nil
}

var diagonal = []string{"A", "B", "C", "D"}

// warmRequests are what set-up submits: every artifact the mix reads
// except the per-job overlay shards.
func (d *daemonMix) warmRequests() []service.Request {
	var out []service.Request
	for _, s := range []string{"vertical", "horizontal"} {
		out = append(out, service.Request{Kind: "sweep", Strategy: s, Config: d.spec})
		for _, p := range diagonal {
			out = append(out, service.Request{Kind: "whatif", Strategy: s, Position: p,
				Queries: []service.WhatIfSpec{{Raise: 0}}, Config: d.spec})
		}
	}
	return append(out, service.Request{Kind: "field_sweep", Grid: "4x4", Shards: 4, Config: d.spec})
}

// maxDeltaFrac is the overlay excursion tmodel.Extract validates a
// model for by default; outOfDomain lies beyond it and forces the
// exact-STA fallback.
const (
	maxDeltaFrac = 0.08
	outOfDomain  = 0.5
)

// mixBlock is the job mix: every block of 20 consecutive jobs holds
// 12 whatif (60%), 3 field re-sweeps (15%), 3 characterize (15%) and 2
// sweeps (10%) in a seeded order, so every run offers the same mix and
// job i depends only on the seed and i.
var mixBlock = []string{
	"whatif", "whatif", "whatif", "whatif", "whatif", "whatif",
	"whatif", "whatif", "whatif", "whatif", "whatif", "whatif",
	"field_sweep", "field_sweep", "field_sweep",
	"characterize", "characterize", "characterize",
	"sweep", "sweep",
}

// job builds job i. One whatif in ten carries an out-of-domain overlay
// on its last query, which forces the exact fallback.
func (d *daemonMix) job(i int) service.Request {
	block := stats.DeriveStream(d.o.seed, fmt.Sprintf("bench/daemon_mix/block/%d", i/len(mixBlock)))
	kind := mixBlock[block.Perm(len(mixBlock))[i%len(mixBlock)]]
	rng := stats.DeriveStream(d.o.seed, fmt.Sprintf("bench/daemon_mix/%d", i))
	strategy := []string{"vertical", "horizontal"}[rng.Intn(2)]
	pos := diagonal[rng.Intn(4)]
	disc := func() *service.OverlaySpec {
		return &service.OverlaySpec{
			XMM: d.wmm * rng.Float64(), YMM: d.hmm * rng.Float64(),
			RMM: d.wmm * (0.1 + 0.3*rng.Float64()), DeltaFrac: 0.01 + 0.06*rng.Float64(),
		}
	}
	switch kind {
	case "whatif":
		req := service.Request{Kind: kind, Strategy: strategy, Position: pos, Config: d.spec}
		for q := 0; q < 3; q++ {
			s := service.WhatIfSpec{Raise: rng.Intn(4), Shifters: rng.Intn(2) == 1}
			if rng.Intn(2) == 1 {
				s.Overlay = disc()
			}
			req.Queries = append(req.Queries, s)
		}
		if rng.Intn(10) == 0 {
			last := &req.Queries[2]
			last.Overlay = disc()
			last.Overlay.DeltaFrac = outOfDomain
		}
		return req
	case "field_sweep":
		ov := disc()
		ov.Pos = fmt.Sprintf("r%dc%d", rng.Intn(4), rng.Intn(4))
		return service.Request{Kind: kind, Grid: "4x4", Shards: 4, Overlays: []service.OverlaySpec{*ov}, Config: d.spec}
	case "characterize":
		return service.Request{Kind: kind, Position: pos, Config: d.spec}
	default:
		return service.Request{Kind: kind, Strategy: strategy, Config: d.spec}
	}
}

// daemon is one running vipiped.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan error
	http *http.Client
	once sync.Once
}

// startDaemon launches vipiped on a free port over a fresh store
// directory and waits for its listening line.
func startDaemon(o opts, recorder int) (*daemon, error) {
	dir, err := os.MkdirTemp(o.work, "vipiped-")
	if err != nil {
		return nil, err
	}
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return nil, err
	}
	defer out.Close()
	logf, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(o.vipiped, "-addr", "127.0.0.1:0", "-workers", "2",
		"-store", filepath.Join(dir, "store"), "-recorder", strconv.Itoa(recorder),
		"-debug", "-drain-timeout", "10s")
	cmd.Stdout, cmd.Stderr = out, logf
	// The daemon dies with the benchmark even when the benchmark is
	// killed before it can drain it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", o.vipiped, err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan error, 1), http: &http.Client{Timeout: 60 * time.Second}}
	go func() { d.done <- cmd.Wait() }()
	// The listening line is the daemon's first stdout line.
	for start := obs.Now(); obs.Since(start) < 20*time.Second; time.Sleep(2 * time.Millisecond) {
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("vipiped exited before listening: %v", err)
		default:
		}
		b, _ := os.ReadFile(out.Name())
		line, _, ok := strings.Cut(string(b), "\n")
		if !ok {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[1] != "listening" {
			d.stop()
			return nil, fmt.Errorf("unexpected vipiped banner %q", line)
		}
		d.base = "http://" + f[3]
		return d, nil
	}
	d.stop()
	return nil, fmt.Errorf("vipiped did not listen within 20s")
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs,
// waits for it to exit and removes its directory. Later calls do
// nothing.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		os.RemoveAll(d.dir)
	})
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// submit posts a request and returns the job ID, or an error for a
// refusal.
func (d *daemon) submit(req service.Request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := d.http.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit %s: %d %s", req.Kind, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var snap service.JobSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return "", err
	}
	return snap.ID, nil
}

// get fetches a path and returns the body of a 200 response.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, err
}

// await polls until every job is terminal and returns the first
// failure.
func (d *daemon) await(ids []string) error {
	for _, id := range ids {
		for {
			b, err := d.get("/jobs/" + id)
			if err != nil {
				return err
			}
			var snap service.JobSnapshot
			if err := json.Unmarshal(b, &snap); err != nil {
				return err
			}
			if snap.State == service.JobDone {
				break
			}
			if snap.State.Terminal() {
				return fmt.Errorf("job %s %s: %s", id, snap.State, snap.Error)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// warm starts a daemon and submits the warm-up requests; it returns
// the daemon and the seconds from launch until every warm-up job is
// done.
func (d *daemonMix) warm(recorder int) (*daemon, float64, error) {
	t0 := obs.Now()
	dm, err := startDaemon(d.o, recorder)
	if err != nil {
		return nil, 0, err
	}
	var ids []string
	for _, req := range d.warmRequests() {
		id, err := dm.submit(req)
		if err != nil {
			dm.stop()
			return nil, 0, err
		}
		ids = append(ids, id)
	}
	if err := dm.await(ids); err != nil {
		dm.stop()
		return nil, 0, err
	}
	return dm, obs.Since(t0).Seconds(), nil
}

// event is the part of a /events record the harness reads.
type event struct {
	Type string `json:"type"`
	Job  string `json:"job"`
}

// terminal is a job's terminal event and when the harness received it.
type terminal struct {
	job, typ string
	at       time.Time
}

// watch subscribes to /events and forwards every terminal job event,
// stamped on receipt, until ctx is cancelled. The stream is open when
// watch returns.
func (d *daemon) watch(ctx context.Context, out chan<- terminal, wg *sync.WaitGroup) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET /events: %d", resp.StatusCode)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer resp.Body.Close()
		rd := bufio.NewReader(resp.Body)
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var ev event
			if json.Unmarshal([]byte(data), &ev) != nil {
				continue
			}
			switch ev.Type {
			case service.EventDone, service.EventFailed, service.EventCancelled:
				select {
				case out <- terminal{job: ev.Job, typ: ev.Type, at: obs.Now()}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return nil
}

// mixJob is one job of the measured window.
type mixJob struct {
	req      service.Request
	due      time.Duration // offset from window start
	sent     time.Duration
	id       string
	err      error
	doneAt   time.Time
	doneType string
	result   []byte
}

// window is one open-loop pass over n jobs against a warm daemon.
type window struct {
	start time.Time
	jobs  []mixJob
	// events is false when the stream lost at least one terminal event.
	events bool
}

// arrivals returns n due offsets in [0, seconds): n sorted uniform
// draws, which is a Poisson process conditioned on n arrivals, so the
// offered load is exactly rate x seconds on every seed.
func arrivals(seed int64, n int, seconds float64) []time.Duration {
	rng := stats.DeriveStream(seed, "bench/daemon_mix/arrivals")
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runWindow submits jobs 0..n-1 on their schedule from one connection
// and collects their terminal events from another.
func (d *daemonMix) runWindow(ctx context.Context, dm *daemon, n int, seconds float64) (*window, error) {
	w := &window{jobs: make([]mixJob, n), events: true}
	due := arrivals(d.o.seed, n, seconds)
	for k := range w.jobs {
		w.jobs[k] = mixJob{req: d.job(k), due: due[k]}
	}
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// One terminal event per job at most: the buffer never blocks the
	// stream reader.
	term := make(chan terminal, n)
	err := dm.watch(wctx, term, &wg)
	if err != nil {
		cancel()
		return nil, err
	}
	byID := make(map[string]int, n)
	w.start = obs.Now()
	for k := range w.jobs {
		j := &w.jobs[k]
		if wait := j.due - obs.Since(w.start); wait > 0 {
			time.Sleep(wait)
		}
		j.sent = obs.Since(w.start)
		j.id, j.err = dm.submit(j.req)
		if j.err == nil {
			byID[j.id] = k
		}
	}
	deadline := time.After(60 * time.Second)
collect:
	for pending := len(byID); pending > 0; pending-- {
		select {
		case t := <-term:
			if k, ok := byID[t.job]; ok {
				w.jobs[k].doneAt, w.jobs[k].doneType = t.at, t.typ
			}
		case <-deadline:
			w.events = false
			break collect
		}
	}
	cancel()
	wg.Wait()
	for k := range w.jobs {
		j := &w.jobs[k]
		if j.err != nil {
			continue
		}
		if err := dm.await([]string{j.id}); err != nil {
			j.err = err
			continue
		}
		if j.result, j.err = dm.get("/jobs/" + j.id + "/result"); j.err != nil {
			continue
		}
		if j.doneAt.IsZero() {
			w.events = false
		}
	}
	return w, nil
}

// latMS is job k's latency from its due time to its job.done event.
func (w *window) latMS(k int) float64 {
	j := w.jobs[k]
	return float64(j.doneAt.Sub(w.start)-j.due) / float64(time.Millisecond)
}

// checkJob verifies a job's result against what its request implies.
func (d *daemonMix) checkJob(j *mixJob) error {
	switch j.req.Kind {
	case "whatif":
		var res wire.WhatIf
		if err := json.Unmarshal(j.result, &res); err != nil {
			return err
		}
		if len(res.Answers) != len(j.req.Queries) {
			return fmt.Errorf("whatif: %d answers for %d queries", len(res.Answers), len(j.req.Queries))
		}
		for q, a := range res.Answers {
			qs := j.req.Queries[q]
			exact := qs.Raise > res.Islands || qs.Overlay != nil && math.Abs(qs.Overlay.DeltaFrac) > maxDeltaFrac
			switch {
			case a.Exact != exact:
				return fmt.Errorf("whatif query %d: exact=%v, want %v", q, a.Exact, exact)
			case a.Exact && a.BoundPS != 0:
				return fmt.Errorf("whatif query %d: exact answer with bound %g", q, a.BoundPS)
			case !a.Exact && !(a.BoundPS > 0):
				return fmt.Errorf("whatif query %d: composed answer without an error bound", q)
			}
		}
	case "field_sweep":
		var s wire.Surface
		if err := json.Unmarshal(j.result, &s); err != nil {
			return err
		}
		if len(s.Positions) != 16 {
			return fmt.Errorf("field_sweep: %d positions", len(s.Positions))
		}
		for _, p := range s.Positions {
			if p.Samples != int64(d.spec.MCSamples) || p.HasOverlay != (p.Position == j.req.Overlays[0].Pos) {
				return fmt.Errorf("field_sweep: position %s has %d samples, overlay %v", p.Position, p.Samples, p.HasOverlay)
			}
			if err := monotoneYields(p.Yields); err != nil {
				return err
			}
		}
	case "characterize":
		var m wire.MCResult
		if err := json.Unmarshal(j.result, &m); err != nil {
			return err
		}
		if m.Samples != d.spec.MCSamples || m.Position != j.req.Position {
			return fmt.Errorf("characterize %s: %d samples at %s", j.req.Position, m.Samples, m.Position)
		}
	case "sweep":
		var s wire.Sweep
		if err := json.Unmarshal(j.result, &s); err != nil {
			return err
		}
		if len(s.Entries) != len(diagonal) {
			return fmt.Errorf("sweep: %d entries", len(s.Entries))
		}
	}
	return nil
}

// replay recomputes jobs in process through service.Engine and
// requires the daemon's bytes: every cheap job, and the first few
// field re-sweeps.
func (d *daemonMix) replay(ctx context.Context, jobs []mixJob) error {
	eng := service.NewEngine(service.NewCache(256<<20), nil)
	for _, req := range d.warmRequests() {
		if _, err := eng.Run(ctx, req); err != nil {
			return err
		}
	}
	fields := 0
	for k := range jobs {
		j := &jobs[k]
		if j.result == nil {
			continue
		}
		if j.req.Kind == "field_sweep" {
			if fields++; fields > 8 {
				continue
			}
		}
		v, err := eng.Run(ctx, j.req)
		if err != nil {
			return err
		}
		b, err := encodeWire(v)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, j.result) {
			return fmt.Errorf("job %s (%s): daemon result differs from the in-process engine", j.id, j.req.Kind)
		}
	}
	return nil
}

// daemonMetrics is the slice of /metrics the harness reads.
type daemonMetrics struct {
	Jobs     service.JobCounters `json:"jobs"`
	Counters map[string]int64    `json:"counters"`
}

func (dm *daemon) metrics() (daemonMetrics, error) {
	var m daemonMetrics
	b, err := dm.get("/metrics")
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	return m, err
}

// memStats reads TotalAlloc and NumGC from the daemon's pprof heap
// page, which prints runtime.MemStats.
func (dm *daemon) memStats() (memSnap, error) {
	b, err := dm.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return memSnap{}, err
	}
	var m memSnap
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			m.alloc, err = strconv.ParseUint(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			m.gcs, err = strconv.ParseUint(v, 10, 64)
		}
		if err != nil {
			return memSnap{}, err
		}
	}
	return m, nil
}

// run measures daemon_mix. Untraced: o.setups daemons each timed from
// launch to warm, the last one measured over o.seconds. Traced: one
// daemon, the first half of the window untraced and the second half's
// job traces read back from the flight recorder.
func (d *daemonMix) run(ctx context.Context, r *report, golden []string) {
	n := int(math.Round(daemonRate * d.o.seconds))
	if d.o.ops > 0 {
		n = d.o.ops
	}
	setups := d.o.setups
	if d.o.trace {
		setups = 1
	}
	var dm *daemon
	var setupS []float64
	for k := 0; k < setups; k++ {
		if dm != nil {
			dm.stop()
		}
		var s float64
		var err error
		if dm, s, err = d.warm(2 * n); err != nil {
			r.fail("setup: %v", err)
			return
		}
		setupS = append(setupS, s)
	}
	defer dm.stop()

	m0, err := dm.metrics()
	if err != nil {
		r.fail("metrics: %v", err)
		return
	}
	mem0, err := dm.memStats()
	if err != nil {
		r.fail("memstats: %v", err)
		return
	}
	cpu0, err := cpuOf(dm.pid())
	if err != nil {
		r.fail("cpu: %v", err)
		return
	}
	w, err := d.runWindow(ctx, dm, n, d.o.seconds)
	if err != nil {
		r.fail("window: %v", err)
		return
	}
	cpu1, err := cpuOf(dm.pid())
	if err != nil {
		r.fail("cpu: %v", err)
		return
	}
	mem1, err := dm.memStats()
	if err != nil {
		r.fail("memstats: %v", err)
		return
	}
	m1, err := dm.metrics()
	if err != nil {
		r.fail("metrics: %v", err)
		return
	}

	dg := &digests{keep: daemonDigestJobs, golden: golden}
	var lat []float64
	var last time.Time
	for k := range w.jobs {
		j := &w.jobs[k]
		r.attempted++
		if j.err == nil && j.doneType != "" && j.doneType != service.EventDone {
			j.err = fmt.Errorf("job %s ended %s", j.id, j.doneType)
		}
		if j.err == nil {
			if err := d.checkJob(j); err != nil {
				r.fail("job %d: %v", k, err)
				j.err = err
			} else if err := dg.add(k, j.result); err != nil {
				r.fail("job %d: %v", k, err)
				j.err = err
			}
		}
		if j.err != nil || j.doneAt.IsZero() {
			r.failed++
			if j.err != nil {
				r.problems = append(r.problems, fmt.Sprintf("job %d: %v", k, j.err))
			}
			continue
		}
		lat = append(lat, w.latMS(k))
		if j.doneAt.After(last) {
			last = j.doneAt
		}
	}
	dg.record(r)
	if len(lat) == 0 {
		r.fail("no job completed")
		return
	}
	if !w.events {
		r.problems = append(r.problems, "the event stream lost terminal events")
	}
	d.extras(r, dm, w, m0, m1)
	if err := d.replay(ctx, w.jobs); err != nil {
		r.fail("replay: %v", err)
	}
	cpuPerOp := float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(lat))

	if !d.o.trace {
		rss, err := peakRSSMiB(strconv.Itoa(dm.pid()))
		if err != nil {
			r.fail("rss: %v", err)
		}
		r.metrics["setup_s"] = median(setupS)
		r.metrics["rss_peak_mb"] = rss
		r.metrics["op_ms_p50"] = median(lat)
		r.metrics["op_ms_p90"] = quantile(lat, 0.9)
		r.metrics["ops_per_s"] = float64(len(lat)) / last.Sub(w.start).Seconds()
		r.metrics["cpu_ms_per_op"] = cpuPerOp
		if tp, ok := tailPercentile(len(lat)); ok {
			r.extra[fmt.Sprintf("tail.op_ms_p%g", tp)] = quantile(lat, tp/100)
		}
		return
	}

	// Traced half: the recorder holds every job of the window.
	jobs := float64(len(w.jobs))
	mem0.perOp(r, mem1, len(w.jobs))
	r.metrics["yield.shards_computed_per_op"] = float64(m1.Counters["yield.shards_computed"]-m0.Counters["yield.shards_computed"]) / jobs
	r.metrics["yield.shards_cached_per_op"] = float64(m1.Counters["yield.shards_cached"]-m0.Counters["yield.shards_cached"]) / jobs
	half := len(w.jobs) / 2
	var first, second []float64
	var ops []traceOp
	for k := range w.jobs {
		j := &w.jobs[k]
		if j.err != nil || j.doneAt.IsZero() {
			continue
		}
		if k < half {
			first = append(first, w.latMS(k))
			continue
		}
		second = append(second, w.latMS(k))
		t, err := dm.trace(j.id)
		if err != nil {
			r.fail("trace %s: %v", j.id, err)
			return
		}
		op := traceOp{index: k, latMS: w.latMS(k), trace: t}
		if j.req.Kind == "whatif" {
			op.composed, op.fallback = answerPaths(j.result)
		}
		ops = append(ops, op)
	}
	if len(first) == 0 || len(second) == 0 {
		r.fail("too few jobs for a traced half")
		return
	}
	r.metrics["trace.overhead_frac"] = median(second)/median(first) - 1
	r.trace = ops
	mix := summarizeTraces(r, ops)
	dm.stop()
	pr, err := runProbes(ctx, probeCore{small: true}, d.o)
	if err != nil {
		r.fail("probes: %v", err)
		return
	}
	pr.into(r)
	r.metrics["attr.unattributed_frac"] = 1 - mix.attributed(pr)/cpuPerOp
}

// daemonDigestJobs is how many leading jobs the run digest covers.
const daemonDigestJobs = 40

// answerPaths counts a whatif result's composed and exact answers.
func answerPaths(result []byte) (composed, fallback int) {
	var res wire.WhatIf
	if json.Unmarshal(result, &res) != nil {
		return 0, 0
	}
	for _, a := range res.Answers {
		if a.Exact {
			fallback++
		} else {
			composed++
		}
	}
	return composed, fallback
}

// trace reads one job's trace back from the flight recorder's Chrome
// export, restoring span identity and attributes from the event args.
func (dm *daemon) trace(id string) (*obs.Trace, error) {
	b, err := dm.get("/debug/trace/" + id)
	if err != nil {
		return nil, err
	}
	cf, err := obs.ParseChrome(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	t := &obs.Trace{ID: id, Name: cf.OtherData["trace_name"]}
	for _, ev := range cf.TraceEvents {
		s := obs.SpanData{Name: ev.Name, StartUS: ev.TS, DurUS: ev.Dur}
		s.ID, _ = strconv.ParseInt(ev.Args["span"], 10, 64)
		s.Parent, _ = strconv.ParseInt(ev.Args["parent"], 10, 64)
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			if k != "span" && k != "parent" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			s.Attrs = append(s.Attrs, obs.Attr{Key: k, Value: ev.Args[k]})
		}
		t.Spans = append(t.Spans, s)
	}
	return t, nil
}

// extras reports the service-layer breakdown as diagnostic lines: queue
// wait, run time per kind, HTTP and event-stream overhead, refusals,
// dropped events and how late the arrival generator ran.
func (d *daemonMix) extras(r *report, dm *daemon, w *window, m0, m1 daemonMetrics) {
	b, err := dm.get("/jobs")
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("job list: %v", err))
		return
	}
	var snaps []service.JobSnapshot
	if err := json.Unmarshal(b, &snaps); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("job list: %v", err))
		return
	}
	byID := make(map[string]service.JobSnapshot, len(snaps))
	for _, s := range snaps {
		byID[s.ID] = s
	}
	var queue, httpMS, late []float64
	run := map[string][]float64{}
	for k := range w.jobs {
		j := &w.jobs[k]
		late = append(late, float64(j.sent-j.due)/float64(time.Millisecond))
		s, ok := byID[j.id]
		if !ok || j.doneAt.IsZero() {
			continue
		}
		queue = append(queue, float64(s.Started.Sub(s.Created))/float64(time.Millisecond))
		run[j.req.Kind] = append(run[j.req.Kind], float64(s.Finished.Sub(s.Started))/float64(time.Millisecond))
		client := j.doneAt.Sub(w.start) - j.sent
		httpMS = append(httpMS, float64(client-s.Finished.Sub(s.Created))/float64(time.Millisecond))
	}
	r.extra["service.queue_ms_p50"] = median(queue)
	r.extra["service.http_ms_p50"] = median(httpMS)
	for kind, v := range run {
		r.extra["service.run_ms_p50."+kind] = median(v)
	}
	r.extra["service.rejected"] = float64(m1.Jobs.Rejected - m0.Jobs.Rejected)
	r.extra["service.events_dropped"] = float64(m1.Counters["events.dropped"] - m0.Counters["events.dropped"])
	r.extra["harness.late_ms_p99"] = quantile(late, 0.99)
}
