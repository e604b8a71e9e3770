package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vipipe/internal/flowerr"
	"vipipe/internal/obs"
)

// JobState is the lifecycle of a submitted job.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether no further transition can happen.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is one submitted request moving through the worker pool.
type Job struct {
	ID  string
	Req Request

	mu sync.Mutex
	// resolved is Req as Submit checked and parsed it, for the worker
	// to run; it is dropped at any terminal state, since the job table
	// keeps finished jobs for their results.
	resolved *resolved
	state    JobState
	err      error
	result   any
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	progress *Progress

	done chan struct{}
}

// setProgress records a completion update from the job's shard sink.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	j.progress = &Progress{Done: done, Total: total}
	j.mu.Unlock()
}

// Snapshot is the frontend view of a job.
type JobSnapshot struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    JobState  `json:"state"`
	Error    string    `json:"error,omitempty"`
	Class    string    `json:"error_class,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Degraded mirrors the durable store's health at snapshot time:
	// results are still correct, but artifacts are not persisting.
	// Stamped by the frontend (the job itself has no engine view).
	Degraded bool `json:"degraded,omitempty"`
	// Progress reports shard completion for field sweeps, nil for
	// kinds that do not report it.
	Progress *Progress `json:"progress,omitempty"`
}

// Snapshot returns a consistent copy of the job's visible state.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobSnapshot{
		ID:       j.ID,
		Kind:     j.Req.Kind,
		State:    j.state,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		s.Error = j.err.Error()
		s.Class = flowerr.Class(j.err)
	}
	if j.progress != nil {
		p := *j.progress
		s.Progress = &p
	}
	return s
}

// Result returns the job's outcome once terminal: (result, nil) for a
// done job, (nil, err) for a failed or cancelled one, and a
// result-not-ready step-order error (HTTP 409) while the job is still
// queued or running.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.Terminal():
		return nil, flowerr.StepOrderf("service: job %s is %s, result not ready", j.ID, j.state)
	case j.err != nil:
		return nil, j.err
	default:
		return j.result, nil
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// maxTerminalJobs bounds the finished (done, failed or cancelled)
// jobs the table keeps, the same bound as the other submit limits:
// past it the job that finished first is evicted. Queued and running
// jobs are never evicted.
const maxTerminalJobs = 4096

// Manager owns the bounded worker pool and the job table. Submissions
// queue; workers run them through the engine with a per-job
// context.Context wired into the flow's cancellation plumbing; results
// stay in the table (completed results survive a drain) until
// maxTerminalJobs newer jobs have finished.
type Manager struct {
	eng     *Engine
	m       *Metrics
	workers int
	rec     *obs.Recorder
	log     *slog.Logger

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // IDs in the table, in submission order
	// retired lists the finished jobs in the table, in the order they
	// finished; at most maxTerminalJobs.
	retired  []string
	nextID   int
	draining bool
	queue    chan *Job
	// queuedBy counts queued (not yet dequeued) jobs per client for
	// admission fairness; clientQuota bounds each count.
	queuedBy    map[string]int
	clientQuota int

	// hub broadcasts Events to /events subscribers; pubMu orders
	// concurrent publishers so seq matches delivery order.
	hub      *obs.Hub[Event]
	pubMu    sync.Mutex
	seq      int64
	eventBuf int

	wg sync.WaitGroup
}

// ManagerOption configures a Manager beyond the pool sizing.
type ManagerOption func(*Manager)

// WithRecorder installs a flight recorder: every job's trace is added
// on completion, serving the /debug/runs and /debug/trace endpoints.
func WithRecorder(r *obs.Recorder) ManagerOption {
	return func(m *Manager) { m.rec = r }
}

// WithLogger routes the manager's structured job-lifecycle logs. The
// default discards them.
func WithLogger(l *slog.Logger) ManagerOption {
	return func(m *Manager) {
		if l != nil {
			m.log = l
		}
	}
}

// WithClientQuota bounds how many jobs one client (Request.Client /
// X-Client header; empty names share the anonymous bucket) may have
// queued at once — per-client fairness, so a burst from one submitter
// cannot occupy the whole queue. The default is the queue capacity,
// i.e. no per-client bound; cmd/vipiped enables a quarter of the
// queue via its -client-quota flag.
func WithClientQuota(n int) ManagerOption {
	return func(m *Manager) {
		if n > 0 {
			m.clientQuota = n
		}
	}
}

// WithEventBuffer sizes each /events subscriber's buffer (default
// 256 events). A subscriber that falls further behind than its buffer
// loses events — counted in events.dropped — rather than ever
// backpressuring the workers.
func WithEventBuffer(n int) ManagerOption {
	return func(m *Manager) {
		if n > 0 {
			m.eventBuf = n
		}
	}
}

// NewManager sizes the pool. workers <= 0 defaults to 2; queueCap <= 0
// defaults to 64.
func NewManager(eng *Engine, m *Metrics, workers, queueCap int, opts ...ManagerOption) *Manager {
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	mgr := &Manager{
		eng:         eng,
		m:           m,
		workers:     workers,
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		jobs:        make(map[string]*Job),
		queue:       make(chan *Job, queueCap),
		queuedBy:    make(map[string]int),
		clientQuota: queueCap,
	}
	for _, opt := range opts {
		opt(mgr)
	}
	mgr.hub = obs.NewHub[Event](mgr.eventBuf, func() { m.Inc("events.dropped") })
	for i := 0; i < workers; i++ {
		mgr.wg.Add(1)
		go mgr.worker()
	}
	return mgr
}

// Recorder returns the flight recorder wired in with WithRecorder, or
// nil.
func (m *Manager) Recorder() *obs.Recorder { return m.rec }

// Workers returns the pool size.
func (m *Manager) Workers() int { return m.workers }

// QueueDepth returns the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Submission failure classes, mapped by flowerr.HTTPStatus through
// their sentinel (both are server-availability conditions, not
// taxonomy failures, so the frontend maps them separately).
var (
	// ErrDraining rejects submissions after drain began.
	ErrDraining = fmt.Errorf("service: draining, not accepting jobs")
	// ErrQueueFull rejects submissions when the queue is at capacity.
	ErrQueueFull = fmt.Errorf("service: job queue full")
	// ErrClientSaturated rejects a submission whose client already has
	// its fair share of the queue; other clients can still submit.
	ErrClientSaturated = fmt.Errorf("service: client queue quota reached")
)

// Submit validates and enqueues a request. Admission is two-tier:
// the bounded queue is the global capacity limit (ErrQueueFull), and
// the per-client quota keeps one bursty submitter from occupying it
// all (ErrClientSaturated). Both map to HTTP 429 with a Retry-After;
// each has its own /metrics counter.
func (m *Manager) Submit(req Request) (*Job, error) {
	r, err := resolve(req)
	if err != nil {
		m.m.JobsRejected.Add(1)
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.m.JobsRejected.Add(1)
		return nil, ErrDraining
	}
	// The quota only bounds identified clients: anonymous submissions
	// are indistinguishable from each other, so they share the global
	// queue bound instead of a fairness bucket.
	if req.Client != "" && m.queuedBy[req.Client] >= m.clientQuota {
		m.m.JobsRejected.Add(1)
		m.m.JobsThrottled.Add(1)
		return nil, fmt.Errorf("%w: client %q has %d jobs queued (quota %d)",
			ErrClientSaturated, req.Client, m.queuedBy[req.Client], m.clientQuota)
	}
	m.nextID++
	job := &Job{
		ID:       jobID(m.nextID),
		Req:      req,
		resolved: r,
		state:    JobQueued,
		created:  obs.Now(),
		done:     make(chan struct{}),
	}
	select {
	case m.queue <- job:
	default:
		m.nextID-- // never existed
		m.m.JobsRejected.Add(1)
		m.m.JobsQueueFull.Add(1)
		return nil, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, len(m.queue))
	}
	m.queuedBy[req.Client]++
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.m.JobsSubmitted.Add(1)
	m.log.Info("job submitted", "job", job.ID, "kind", req.Kind, "client", req.Client, "queue_depth", len(m.queue))
	m.publish(Event{Type: EventQueued, Job: job.ID, Kind: req.Kind, State: JobQueued})
	return job, nil
}

// RetryAfterSeconds estimates when a rejected submitter should try
// again: the queue depth paced by the worker pool, clamped to [1,60]
// seconds. Deliberately coarse — it sizes an HTTP Retry-After header,
// not a scheduler.
func (m *Manager) RetryAfterSeconds() int {
	s := 1 + m.QueueDepth()/m.workers
	if s > 60 {
		s = 60
	}
	return s
}

// Degraded reports whether the engine's durable store (if any) is in
// degraded mode; surfaced on /metrics and every job snapshot.
func (m *Manager) Degraded() bool { return m.eng.Degraded() }

// jobID names the n-th submitted job.
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// expired reports whether id names a job this manager accepted and
// has since evicted from its table.
func (m *Manager) expired(id string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || id != jobID(n) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, live := m.jobs[id]
	return !live && n >= 1 && n <= m.nextID
}

// retire files a job that just reached a terminal state and evicts
// the jobs that finished first past maxTerminalJobs.
func (m *Manager) retire(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retired = append(m.retired, id)
	for len(m.retired) > maxTerminalJobs {
		old := m.retired[0]
		m.retired = m.retired[1:]
		delete(m.jobs, old)
		if i := slices.Index(m.order, old); i >= 0 {
			m.order = slices.Delete(m.order, i, i+1)
		}
	}
}

// List snapshots every job in the table in submission order.
func (m *Manager) List() []JobSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobSnapshot, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].Snapshot())
	}
	return out
}

// Cancel requests cancellation: a queued job terminates immediately
// with an ErrCancelled-classified error; a running job has its context
// cancelled and terminates when the flow step observes it; a terminal
// job is left untouched. The returned snapshot reflects the state
// after the request.
func (m *Manager) Cancel(id string) (JobSnapshot, bool) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobSnapshot{}, false
	}
	job.mu.Lock()
	wasQueued := job.state == JobQueued
	switch job.state {
	case JobQueued:
		job.state = JobCancelled
		job.err = flowerr.Cancelledf("service: job %s cancelled while queued", job.ID)
		job.resolved = nil
		job.finished = obs.Now()
		m.m.JobsCancelled.Add(1)
		m.log.Info("job cancelled while queued", "job", job.ID, "kind", job.Req.Kind)
		m.publish(Event{Type: EventCancelled, Job: job.ID, Kind: job.Req.Kind, State: JobCancelled, Error: "cancelled"})
	case JobRunning:
		job.cancel() // worker finishes the bookkeeping
	}
	job.mu.Unlock()
	if wasQueued {
		m.retire(job.ID)
		close(job.done)
	}
	return job.Snapshot(), true
}

// worker pulls jobs until the queue closes on drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.mu.Lock()
		if m.queuedBy[job.Req.Client] <= 1 {
			delete(m.queuedBy, job.Req.Client)
		} else {
			m.queuedBy[job.Req.Client]--
		}
		m.mu.Unlock()
		job.mu.Lock()
		if job.state != JobQueued { // cancelled while queued
			job.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		r := job.resolved
		job.state = JobRunning
		job.started = obs.Now()
		job.cancel = cancel
		if r.kind.plan {
			job.progress = &Progress{Total: r.plan.NumShards()}
		}
		job.mu.Unlock()
		m.log.Info("job started", "job", job.ID, "kind", job.Req.Kind)
		m.publish(Event{Type: EventRunning, Job: job.ID, Kind: job.Req.Kind, State: JobRunning})

		// Each job runs under its own tracer; the finished trace goes
		// to the flight recorder for /debug/trace/{id}.
		tr := obs.NewTracer(job.ID, job.Req.Kind)
		ctx = obs.WithTracer(ctx, tr)
		ctx, root := obs.Start(ctx, "job."+job.Req.Kind)
		ctx = WithShardEvents(ctx, func(se ShardEvent) {
			job.setProgress(se.Done, se.Total)
			sh := se
			m.publish(Event{Type: EventShard, Job: job.ID, Kind: job.Req.Kind, State: JobRunning, Shard: &sh})
		})

		m.m.WorkersBusy.Add(1)
		res, err := m.eng.run(ctx, r)
		m.m.WorkersBusy.Add(-1)
		cancel()

		job.mu.Lock()
		job.resolved = nil
		job.finished = obs.Now()
		switch {
		case err == nil:
			job.state = JobDone
			job.result = res
			m.m.JobsCompleted.Add(1)
		case flowerr.Class(err) == "cancelled":
			job.state = JobCancelled
			job.err = err
			m.m.JobsCancelled.Add(1)
		default:
			job.state = JobFailed
			job.err = err
			m.m.JobsFailed.Add(1)
		}
		state, dur := job.state, job.finished.Sub(job.started)
		m.m.ObserveStep("job."+job.Req.Kind, dur)
		job.mu.Unlock()
		// Retire before waking waiters: a job seen done is filed.
		m.retire(job.ID)
		close(job.done)

		ev := Event{Job: job.ID, Kind: job.Req.Kind, State: state}
		switch state {
		case JobDone:
			ev.Type = EventDone
		case JobCancelled:
			ev.Type = EventCancelled
			ev.Error = flowerr.Class(err)
		default:
			ev.Type = EventFailed
			ev.Error = flowerr.Class(err)
		}
		m.publish(ev)

		root.SetAttr("state", state)
		if err != nil {
			root.SetAttr("error", flowerr.Class(err))
		}
		root.End()
		m.rec.Add(tr.Finish())
		if err != nil {
			m.log.Warn("job finished", "job", job.ID, "kind", job.Req.Kind,
				"state", state, "dur_ms", dur.Milliseconds(), "error_class", flowerr.Class(err), "error", err)
		} else {
			m.log.Info("job finished", "job", job.ID, "kind", job.Req.Kind,
				"state", state, "dur_ms", dur.Milliseconds())
		}
	}
}

// DrainStats accounts for the jobs that were still open when Drain
// was called: Drained ran to a done or failed state before the
// deadline, Aborted were cancelled (by the deadline or a concurrent
// Cancel).
type DrainStats struct {
	Drained int
	Aborted int
}

// Drain stops accepting submissions, lets the workers finish every
// queued and running job, and returns when the pool is idle. Completed
// results remain fetchable afterwards. If ctx expires first, the
// remaining running jobs are cancelled, the pool is awaited, and the
// ctx error is returned. Either way the stats classify every job that
// was open at drain start.
func (m *Manager) Drain(ctx context.Context) (DrainStats, error) {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	var open []*Job
	for _, job := range m.jobs {
		job.mu.Lock()
		if !job.state.Terminal() {
			open = append(open, job) //lint:ignore maporder open is only tallied into order-independent counts, never iterated for output
		}
		job.mu.Unlock()
	}
	m.mu.Unlock()

	stats := func() DrainStats {
		var s DrainStats
		for _, job := range open {
			job.mu.Lock()
			if job.state == JobCancelled {
				s.Aborted++
			} else {
				s.Drained++
			}
			job.mu.Unlock()
		}
		return s
	}

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		// Close the event stream only after the last worker published
		// its terminal event, so drained subscribers see every job end.
		m.hub.Close()
		return stats(), nil
	case <-ctx.Done():
		// Cancel everything still open — including jobs that are only
		// queued, or the workers would keep pulling them off the closed
		// queue and run them to completion long past the deadline.
		m.mu.Lock()
		ids := make([]string, 0, len(m.jobs))
		for id := range m.jobs {
			ids = append(ids, id)
		}
		m.mu.Unlock()
		sort.Strings(ids)
		for _, id := range ids {
			m.Cancel(id)
		}
		<-idle
		m.hub.Close()
		return stats(), flowerr.Cancelledf("service: drain deadline expired, in-flight jobs cancelled: %w", ctx.Err())
	}
}
