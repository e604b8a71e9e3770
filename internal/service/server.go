package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"vipipe/internal/flowerr"
	"vipipe/internal/obs"
	"vipipe/internal/service/wire"
)

// Server is the HTTP frontend of the job manager.
//
// Endpoints:
//
//	POST /jobs             submit a Request           -> 202 + JobSnapshot
//	GET  /jobs             list the job table         -> 200 + [JobSnapshot]
//	GET  /jobs/{id}        job status                 -> 200 + JobSnapshot
//	GET  /jobs/{id}/result fetch a terminal result    -> 200 + wire DTO,
//	                       or the flowerr-mapped status of the failure
//	POST /jobs/{id}/cancel request cancellation       -> 200 + JobSnapshot
//	                       (an ID evicted from the table, which keeps
//	                       every open job and the newest 4,096
//	                       finished ones, is 404 on all three)
//	GET  /metrics          metrics snapshot           -> 200 + Snapshot
//	GET  /metrics/history  rolling telemetry window   -> 200 + HistoryView
//	                       (?window=5m; needs WithHistory)
//	GET  /events           live job stream            -> 200, Server-Sent Events
//	GET  /healthz          liveness                   -> 200
//	GET  /debug/runs       flight-recorder index      -> 200 + [obs.Summary]
//	                       (?limit=N newest)
//	GET  /debug/trace/{id} Chrome trace-event JSON    -> 200 (Perfetto-loadable)
//	GET  /debug/profile    cross-run cost table       -> 200 + obs.CostTable
//	GET  /debug/profile/{id} one job's run profile    -> 200 + obs.RunProfile
//	                       (?format=text for the tree report)
//	GET  /debug/pprof/...  net/http/pprof             (only with WithPprof)
//
// Failure classes map onto statuses via flowerr.HTTPStatus: bad input
// 400, step order 409, cancelled 499, no-scenario and DRC 422, panics
// and partial steps 500. Submission while draining is 503; a full
// queue or a client past its fairness quota is 429. The 429/503
// rejections carry a Retry-After header paced by the queue depth.
// When the durable store degrades, /metrics reports store.mode
// "degraded" and every job snapshot carries "degraded": true.
type Server struct {
	mgr  *Manager
	m    *Metrics
	hist *MetricsHistory
	mux  *http.ServeMux
}

// ServerOption configures optional routes.
type ServerOption func(*Server)

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiling endpoints expose stacks and heap contents, so the daemon
// only enables them behind its -debug flag.
func WithPprof() ServerOption {
	return func(s *Server) {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// WithHistory wires the rolling telemetry ring that backs
// /metrics/history. The daemon samples into it on its own cadence;
// without one the endpoint serves an empty window.
func WithHistory(h *MetricsHistory) ServerOption {
	return func(s *Server) { s.hist = h }
}

// NewServer wires the routes.
func NewServer(mgr *Manager, m *Metrics, opts ...ServerOption) *Server {
	s := &Server{mgr: mgr, m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/history", s.handleHistory)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /debug/runs", s.handleRuns)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /debug/profile", s.handleProfileIndex)
	s.mux.HandleFunc("GET /debug/profile/{id}", s.handleProfile)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = wire.Encode(w, v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Class: flowerr.Class(err)})
}

// writeBackpressure is writeError plus a Retry-After header, for the
// availability rejections (429 backpressure, 503 draining) where the
// client's correct move is to come back, not to fix the request.
func (s *Server) writeBackpressure(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.mgr.RetryAfterSeconds()))
	writeError(w, status, err)
}

// snapshot stamps the store health onto a job's snapshot, so clients
// polling a job learn when results stopped persisting.
func (s *Server) snapshot(job *Job) JobSnapshot {
	snap := job.Snapshot()
	snap.Degraded = s.mgr.Degraded()
	return snap
}

// maxRequestBytes bounds a submitted body. The largest request the
// other bounds admit — 4,096 what-if queries, each with an overlay
// disc — encodes to 1–2 MiB of indented JSON.
const maxRequestBytes = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, flowerr.BadInputf("service: bad request body: %v", err))
		return
	}
	if req.Client == "" {
		req.Client = r.Header.Get("X-Client")
	}
	job, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, ErrDraining):
		s.writeBackpressure(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClientSaturated):
		s.writeBackpressure(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		writeError(w, flowerr.HTTPStatus(err), err)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, s.snapshot(job))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := s.mgr.List()
	if s.mgr.Degraded() {
		for i := range list {
			list[i].Degraded = true
		}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.mgr.Get(id)
	if !ok {
		s.noJob(w, id)
	}
	return job, ok
}

// noJob answers 404 for an ID the table does not hold, saying whether
// the job expired from it or never existed.
func (s *Server) noJob(w http.ResponseWriter, id string) {
	if s.mgr.expired(id) {
		writeError(w, http.StatusNotFound, flowerr.BadInputf(
			"service: job %q expired from the job table (it keeps the %d most recently finished jobs)", id, maxTerminalJobs))
		return
	}
	writeError(w, http.StatusNotFound, flowerr.BadInputf("service: no job %q", id))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, s.snapshot(job))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	res, err := job.Result()
	if err != nil {
		writeError(w, flowerr.HTTPStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.mgr.Cancel(id)
	if !ok {
		s.noJob(w, id)
		return
	}
	snap.Degraded = s.mgr.Degraded()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Snapshot(s.mgr.eng.Cache(), s.mgr))
}

// handleHistory serves the rolling telemetry window. ?window=5m
// bounds how far back (any time.ParseDuration form; absent or zero
// means everything retained).
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	var window time.Duration
	if ws := r.URL.Query().Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil {
			writeError(w, http.StatusBadRequest, flowerr.BadInputf("service: bad window %q: %v", ws, err))
			return
		}
		window = d
	}
	writeJSON(w, http.StatusOK, s.hist.View(window))
}

// handleEvents streams the manager's live job events as Server-Sent
// Events: one "event: <type>" + "data: <Event JSON>" block per event.
// A subscriber that stops reading loses events (counted in
// events.dropped) instead of backpressuring the workers, and a write
// stuck longer than 15s tears the stream down. The stream ends when
// the client disconnects or the manager drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, flowerr.BadInputf("service: response writer cannot stream"))
		return
	}
	ch, cancel := s.mgr.Events().Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	rc := http.NewResponseController(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			_ = rc.SetWriteDeadline(obs.Now().Add(15 * time.Second))
			if _, err := w.Write([]byte("event: " + ev.Type + "\n")); err != nil {
				return
			}
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			if err := json.NewEncoder(w).Encode(ev); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n")); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// handleRuns serves the flight-recorder index: one summary per
// retained job trace, newest first. An empty list (also when no
// recorder is wired) is a valid answer, not an error. ?limit=N keeps
// only the N newest.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	list := s.mgr.Recorder().List()
	if list == nil {
		list = []obs.Summary{}
	}
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, flowerr.BadInputf("service: bad limit %q", ls))
			return
		}
		if n < len(list) {
			list = list[:n]
		}
	}
	writeJSON(w, http.StatusOK, list)
}

// handleProfileIndex serves the cross-run cost table: every retained
// trace profiled and folded into one per-node-kind account, answering
// "where do the microseconds go across the recent workload".
func (s *Server) handleProfileIndex(w http.ResponseWriter, r *http.Request) {
	ct := obs.AggregateCosts(s.mgr.Recorder().Traces())
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = ct.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, ct)
}

// handleProfile serves one retained job's run profile — self-times,
// critical path, per-kind cost table. ?format=text renders the
// human-readable tree report instead of JSON.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.mgr.Recorder().Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, flowerr.BadInputf("service: no recorded trace for job %q (recorder keeps recent jobs only)", id))
		return
	}
	p := obs.Profile(t)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = p.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// handleTrace serves one retained trace as Chrome trace-event JSON —
// the same format the CLIs write with -trace, loadable in Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.mgr.Recorder().Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, flowerr.BadInputf("service: no recorded trace for job %q (recorder keeps recent jobs only)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = t.WriteChrome(w)
}
