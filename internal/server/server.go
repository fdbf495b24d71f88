// Package server is the hmptd serving layer: a long-running HTTP
// front-end over the campaign engine that keeps the whole cache ladder
// hot across requests. One process-wide FlightGroup — the in-process
// store, kept under a byte budget (Config.MemoBytes) — plus the
// snapshot cache and the analysis cache back every request, so the
// engine's exactly-once guarantees extend across concurrent clients: N
// identical requests arriving together execute at most one kernel and
// one placement sweep, and a warm request is served from memory (or,
// once evicted, from disk) with zero kernels, zero sampling passes,
// zero placement passes and zero derived snapshots.
//
// The API is deliberately small:
//
//	POST /v1/analyze    one workload × platform analysis
//	POST /v1/campaign   a full matrix (workloads × platforms × seeds)
//	GET  /v1/workloads  the resolvable workload and platform names
//	GET  /healthz       liveness (the process is up)
//	GET  /readyz        readiness (503 while draining or cache-degraded)
//	GET  /metrics       Prometheus text exposition (see newMetrics)
//
// Errors are structured JSON: {"error":{"code":"...","message":"..."}}.
// A request whose client disconnects is answered 499 request_cancelled;
// one that outlives its deadline (the request's timeout_ms field or the
// server's -request-timeout) is answered 504 deadline_exceeded. Either
// way the run stops cold work cooperatively and the cache tree stays
// consistent. A timeout_ms too large for a time.Duration is refused up
// front with 400 bad_timeout. Handler panics are recovered into 500
// internal_panic, and a response that cannot be encoded (a NaN or
// infinite float) is answered 500 encode_failed.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/faultfs"
	"hmpt/internal/trace"
	"hmpt/internal/workloads"
)

// StatusClientClosedRequest is the non-standard (nginx-convention)
// status for a request whose client went away before the response.
const StatusClientClosedRequest = 499

// DefaultMemoBytes is the flight group's byte budget when
// Config.MemoBytes is 0: room for a few hundred analyses and captures,
// against a heap that otherwise grows with every key served.
const DefaultMemoBytes = 16 << 20

// Config wires a Server to its caches and capacity limits.
type Config struct {
	// CacheDir roots the on-disk snapshot cache; empty keeps captures
	// in the process's flight group only.
	CacheDir string
	// AnalysisCacheDir roots the on-disk analysis cache; empty keeps
	// analyses in the process's flight group only.
	AnalysisCacheDir string
	// Parallelism caps each campaign run's worker goroutines
	// (0 = GOMAXPROCS).
	Parallelism int
	// MaxConcurrent caps the number of campaign runs executing at once;
	// excess requests queue (visible as hmptd_queue_depth). 0 means
	// unlimited — coalescing already bounds duplicated work.
	MaxConcurrent int
	// RequestTimeout bounds every run-serving request that does not
	// carry its own timeout_ms; 0 means no server-side deadline.
	RequestTimeout time.Duration
	// Injector, when non-nil, interposes deterministic fault injection
	// between the on-disk caches and the real filesystem, and surfaces
	// its injected-fault counts in /metrics. The chaos harness arms it;
	// production leaves it nil.
	Injector *faultfs.Injector
	// CacheReprobe overrides how long a degraded cache publisher waits
	// before re-probing the disk (0 = the publisher default).
	CacheReprobe time.Duration
	// MemoBytes is the byte budget of the process's flight group, the
	// in-process store: completed captures and analyses beyond it are
	// evicted least recently used first, and an evicted key falls
	// through to the disk caches (or is recomputed when they are not
	// configured). 0 means DefaultMemoBytes; a negative budget is
	// refused.
	MemoBytes int64
	// Log receives request and lifecycle lines; nil uses the default
	// logger.
	Log *log.Logger
}

// Server serves tuning analyses over HTTP from shared warm caches.
type Server struct {
	cfg     Config
	log     *log.Logger
	flights *campaign.FlightGroup
	// work is the root ledger: every request's run counts its work on
	// a child of it, so it holds the totals /metrics exposes.
	work     *core.Ledger
	cache    *trace.SnapshotCache
	analyses *core.AnalysisCache
	met      *serverMetrics
	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool
}

// New builds a Server over the configured cache tree. Engines created
// per request share one FlightGroup, bounded by cfg.MemoBytes, for the
// life of the process — that sharing is what turns the engine's per-run
// guarantees into serving-layer guarantees.
func New(cfg Config) (*Server, error) {
	if cfg.MemoBytes < 0 {
		return nil, fmt.Errorf("server: memo budget %d bytes is negative", cfg.MemoBytes)
	}
	if cfg.MemoBytes == 0 {
		cfg.MemoBytes = DefaultMemoBytes
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Log,
		flights: campaign.NewBoundedFlightGroup(cfg.MemoBytes),
		work:    core.NewLedger(nil),
	}
	if s.log == nil {
		s.log = log.Default()
	}
	var fs faultfs.FS
	if cfg.Injector != nil {
		fs = cfg.Injector
	}
	if cfg.CacheDir != "" {
		c, err := trace.NewSnapshotCacheFS(cfg.CacheDir, fs)
		if err != nil {
			return nil, err
		}
		if cfg.CacheReprobe > 0 {
			c.Publisher().ReprobeAfter = cfg.CacheReprobe
		}
		s.cache = c
	}
	if cfg.AnalysisCacheDir != "" {
		a, err := core.NewAnalysisCacheFS(cfg.AnalysisCacheDir, fs)
		if err != nil {
			return nil, err
		}
		if cfg.CacheReprobe > 0 {
			a.Publisher().ReprobeAfter = cfg.CacheReprobe
		}
		s.analyses = a
	}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	s.met = newMetrics(s)
	return s, nil
}

// Work returns the work counted on the server's ledger: everything the
// runs of all its requests did, including flights a cancelled request
// left running for others.
func (s *Server) Work() core.Work { return s.work.Work() }

// engine returns a campaign engine for one request, backed by the
// server's shared caches and flight group.
func (s *Server) engine() *campaign.Engine {
	return &campaign.Engine{
		Cache:       s.cache,
		Analyses:    s.analyses,
		Flights:     s.flights,
		Parallelism: s.cfg.Parallelism,
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.instrument("/v1/analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/campaign", s.instrument("/v1/campaign", s.handleCampaign))
	mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", s.handleWorkloads))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Known paths with the wrong method should say so rather than 404.
	mux.HandleFunc("/v1/analyze", s.methodNotAllowed(http.MethodPost))
	mux.HandleFunc("/v1/campaign", s.methodNotAllowed(http.MethodPost))
	mux.HandleFunc("/v1/workloads", s.methodNotAllowed(http.MethodGet))
	mux.HandleFunc("/healthz", s.methodNotAllowed(http.MethodGet))
	mux.HandleFunc("/readyz", s.methodNotAllowed(http.MethodGet))
	mux.HandleFunc("/metrics", s.methodNotAllowed(http.MethodGet))
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: a panicking handler is
// recovered into a structured 500 (best-effort if headers are already
// out) instead of killing the connection — and never the process.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.httpPanics.Inc()
				s.log.Printf("hmptd: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				s.writeError(w, http.StatusInternalServerError, "internal_panic",
					fmt.Sprintf("handler panicked: %v", rec))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// BeginDrain marks the server as draining: /readyz answers 503 so load
// balancers stop sending new work, while in-flight requests complete
// through the usual http.Server.Shutdown. Draining is one-way.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// instrument wraps a handler with the request counters, the in-flight
// gauge and the whole-request latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Inc(endpoint)
		s.met.inflight.Inc()
		defer s.met.inflight.Dec()
		start := time.Now()
		h(w, r)
		s.met.requestSec.Observe(endpoint, time.Since(start).Seconds())
	}
}

func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s only accepts %s", r.URL.Path, allow))
	}
}

// apiError is the structured error envelope of every non-2xx response.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.met.errors.Inc(code)
	var e apiError
	e.Error.Code = code
	e.Error.Message = msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&e)
}

// writeJSON answers 200 with v encoded by encoding/json, indented; the
// run-serving endpoints use the append encoder instead (encode.go).
func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, v any) {
	start := time.Now()
	body, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		body = append(body, '\n')
	}
	s.writeBody(w, endpoint, start, body, err)
}

// writeBody answers 200 with a response body encoded since start, in
// one Write. Nothing has been written when encoding fails, so a body
// that could not be encoded (a NaN or infinite float) is answered 500
// encode_failed instead, counted in hmptd_request_errors_total like
// every error.
func (s *Server) writeBody(w http.ResponseWriter, endpoint string, start time.Time, body []byte, err error) {
	if err != nil {
		s.log.Printf("hmptd: encoding %s response: %v", endpoint, err)
		s.writeError(w, http.StatusInternalServerError, "encode_failed",
			fmt.Sprintf("encoding the %s response: %v", endpoint, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		// The client is gone; all that is left is to count it.
		s.met.errors.Inc("encode_failed")
		s.log.Printf("hmptd: writing %s response: %v", endpoint, err)
		return
	}
	s.met.stageSec.Observe("encode", time.Since(start).Seconds())
}

// acquire takes a run slot (when MaxConcurrent caps them), surfacing
// time spent waiting as queue depth. The request context — deadline
// included — cancels the wait when the client goes away or the
// deadline passes.
func (s *Server) acquire(ctx context.Context) error {
	if s.sem == nil {
		return nil
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// decode parses a JSON request body, timing the decode stage. Unknown
// fields are rejected: a typo silently ignored is a wrong analysis
// served with confidence. A body over the cap is a structured 413, not
// a generic JSON error.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	start := time.Now()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request_too_large",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, "bad_json", err.Error())
		return false
	}
	s.met.stageSec.Observe("decode", time.Since(start).Seconds())
	return true
}

// requestContext derives one request's run context: the http.Request
// context (cancelled when the client disconnects) bounded by the
// request's own timeout_ms when set, else the server-wide
// RequestTimeout when configured. It carries the server's ledger.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	ctx := core.WithLedger(r.Context(), s.work)
	timeout := s.cfg.RequestTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// writeRunError maps a failed run to its structured response:
// cancellation (the client went away) is 499, a blown deadline is 504,
// anything else a 500. The cancellation and timeout counters feed the
// hmptd_* metric families.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.met.cancellations.Inc()
		s.writeError(w, StatusClientClosedRequest, "request_cancelled",
			"request cancelled before the run completed")
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"request deadline exceeded before the run completed")
	default:
		s.writeError(w, http.StatusInternalServerError, "run_failed", err.Error())
	}
}

// run executes one request's matrix under the concurrency cap, timing
// the run stage, and folds the result into the outcome counters. It
// answers a refused request or a failed run itself and returns nil.
// Cancellation propagates down to the core pipeline (see RunContext).
func (s *Server) run(w http.ResponseWriter, r *http.Request, m campaign.Matrix, rerr *requestError, timeoutMs int) *campaign.Result {
	if rerr != nil {
		s.writeError(w, rerr.status, rerr.code, rerr.msg)
		return nil
	}
	ctx, cancel := s.requestContext(r, timeoutMs)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.writeRunError(w, err)
		return nil
	}
	defer s.release()
	start := time.Now()
	res, err := s.engine().RunContext(ctx, m)
	s.met.stageSec.Observe("run", time.Since(start).Seconds())
	if err != nil {
		s.writeRunError(w, err)
		return nil
	}
	s.observeResult(res)
	return res
}

// AnalyzeRequest is the body of POST /v1/analyze: one workload on one
// platform preset. Zero-valued options inherit the workload's paper
// defaults, exactly like the CLI.
type AnalyzeRequest struct {
	Workload string `json:"workload"`
	// Platform is a preset name ("xeonmax" default, "dual").
	Platform string `json:"platform,omitempty"`
	// Full selects the benchmark-scale instance (Table I benchmarks
	// only); the default fast instance represents the same footprint.
	Full bool `json:"full,omitempty"`
	// Runs overrides measured runs per configuration (0 = default).
	Runs int `json:"runs,omitempty"`
	// Seed overrides the workload's paper seed when non-nil.
	Seed *uint64 `json:"seed,omitempty"`
	// Iterations overrides the iteration/timestep count (0 = default).
	Iterations int `json:"iterations,omitempty"`
	// TimeoutMs bounds this request: past the deadline the run stops
	// cold work cooperatively and the response is 504
	// deadline_exceeded. 0 inherits the server's -request-timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// CellResult is one evaluated scenario in a response: the Table II
// metrics plus the cache provenance of how cheaply it was served.
type CellResult struct {
	Workload string `json:"workload"`
	Platform string `json:"platform"`
	Variant  string `json:"variant,omitempty"`
	Error    string `json:"error,omitempty"`

	MaxSpeedup     float64 `json:"max_speedup,omitempty"`
	BestConfig     string  `json:"best_config,omitempty"`
	HBMOnlySpeedup float64 `json:"hbm_only_speedup,omitempty"`
	NinetyUsage    float64 `json:"ninety_usage,omitempty"`
	MemoryBytes    int64   `json:"memory_bytes,omitempty"`
	FilteredAllocs int     `json:"filtered_allocs,omitempty"`
	BaselineSec    float64 `json:"baseline_seconds,omitempty"`
	SampleCount    int     `json:"sample_count,omitempty"`

	// Provenance: how the cell was resolved (see campaign.Cell).
	AnalysisFromCache bool `json:"analysis_from_cache"`
	SnapshotFromCache bool `json:"snapshot_from_cache"`
	Derived           bool `json:"derived"`
	SeedDerived       bool `json:"seed_derived"`
	Coalesced         bool `json:"coalesced"`
}

func cellResult(c *campaign.Cell) CellResult {
	out := CellResult{
		Workload:          c.Workload,
		Platform:          c.Platform,
		Variant:           c.Variant,
		AnalysisFromCache: c.AnalysisFromCache,
		SnapshotFromCache: c.FromCache,
		Derived:           c.Derived,
		SeedDerived:       c.SeedDerived,
		Coalesced:         c.Coalesced,
	}
	if c.Err != nil {
		out.Error = c.Err.Error()
		return out
	}
	an := c.Analysis
	row := an.TableIIRow()
	out.MaxSpeedup = row.MaxSpeedup
	out.HBMOnlySpeedup = row.HBMOnlySpeedup
	out.NinetyUsage = row.NinetyUsage
	out.MemoryBytes = int64(row.MemoryUsage)
	out.FilteredAllocs = row.FilteredAllocs
	out.BaselineSec = an.BaselineTime.Seconds()
	out.SampleCount = an.SampleCount
	if _, cfg := an.MaxSpeedup(); cfg != nil {
		out.BestConfig = cfg.Label
	}
	return out
}

// RunCounters mirrors campaign.Result's work accounting in responses.
type RunCounters struct {
	Snapshots  int `json:"snapshots"`
	Executions int `json:"executions"`
	CacheHits  int `json:"cache_hits"`
	Derived    int `json:"derived"`
	// SeedDerived is the subset of Derived transposed across seeds; it
	// is not a separate provenance class.
	SeedDerived  int `json:"seed_derived"`
	Coalesced    int `json:"coalesced"`
	AnalysisHits int `json:"analysis_hits"`
	CacheErrs    int `json:"cache_errors"`
	// Work is the run's own ledger (campaign.Result.Work): the work
	// done for this request, not the process totals.
	Work core.Work `json:"work"`
}

func runCounters(res *campaign.Result) RunCounters {
	return RunCounters{
		Snapshots:    res.Snapshots,
		Executions:   res.Executions,
		CacheHits:    res.CacheHits,
		Derived:      res.Derived,
		SeedDerived:  res.SeedDerived,
		Coalesced:    res.Coalesced,
		AnalysisHits: res.AnalysisHits,
		CacheErrs:    len(res.CacheErrs),
		Work:         res.Work,
	}
}

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Result   CellResult  `json:"result"`
	Counters RunCounters `json:"counters"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, rerr := req.matrix()
	res := s.run(w, r, m, rerr, req.TimeoutMs)
	if res == nil {
		return
	}
	cell := &res.Cells[0]
	if cell.Err != nil {
		s.writeError(w, http.StatusInternalServerError, "analysis_failed", cell.Err.Error())
		return
	}
	out := AnalyzeResponse{Result: cellResult(cell), Counters: runCounters(res)}
	start := time.Now()
	body, err := encodeAnalyzeResponse(&out)
	s.writeBody(w, "/v1/analyze", start, body, err)
}

// CampaignRequest is the body of POST /v1/campaign: a matrix of
// workloads × platforms × optional seed variants. Empty Workloads means
// the full Table I benchmark set; empty Platforms means xeonmax.
type CampaignRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Platforms []string `json:"platforms,omitempty"`
	Seeds     []uint64 `json:"seeds,omitempty"`
	// SeedCount is shorthand for Seeds = [1..N]; ignored when Seeds is
	// set explicitly (same semantics as CampaignSpec.SeedCount).
	SeedCount  int  `json:"seed_count,omitempty"`
	Full       bool `json:"full,omitempty"`
	Runs       int  `json:"runs,omitempty"`
	Iterations int  `json:"iterations,omitempty"`
	// TimeoutMs bounds this request; see AnalyzeRequest.TimeoutMs.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// CampaignResponse is the body of a successful POST /v1/campaign.
type CampaignResponse struct {
	Cells    []CellResult `json:"cells"`
	Counters RunCounters  `json:"counters"`
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, rerr := req.matrix()
	res := s.run(w, r, m, rerr, req.TimeoutMs)
	if res == nil {
		return
	}
	out := CampaignResponse{
		Cells:    make([]CellResult, 0, len(res.Cells)),
		Counters: runCounters(res),
	}
	for i := range res.Cells {
		out.Cells = append(out.Cells, cellResult(&res.Cells[i]))
	}
	start := time.Now()
	body, err := encodeCampaignResponse(&out)
	s.writeBody(w, "/v1/campaign", start, body, err)
}

// maxMatrixCells caps the cells one request may ask for. The largest
// matrix any client in this repository sends has 112 cells; a request
// over the cap is refused with 400 matrix_too_large before anything is
// sized from it.
const maxMatrixCells = 4096

// requestError is a request refused before any run: its status and
// structured error code.
type requestError struct {
	status    int
	code, msg string
}

// matrix resolves an analyze request: the one-cell campaign of its
// workload on its platform, with the seed override applied to the
// workload's options rather than as a variant.
func (req *AnalyzeRequest) matrix() (campaign.Matrix, *requestError) {
	if req.Workload == "" {
		return campaign.Matrix{}, &requestError{http.StatusBadRequest, "bad_request", "missing workload name"}
	}
	m, rerr := (&CampaignRequest{
		Workloads: []string{req.Workload}, Platforms: []string{req.Platform},
		Full: req.Full, Runs: req.Runs, Iterations: req.Iterations, TimeoutMs: req.TimeoutMs,
	}).matrix()
	if rerr == nil && req.Seed != nil {
		m.Workloads[0].Options.Seed = *req.Seed
	}
	return m, rerr
}

// maxTimeoutMs is the largest timeout_ms whose time.Duration does not
// overflow; a larger one would wrap to a negative deadline and time the
// request out before it ran.
const maxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

// matrix resolves a campaign request into the matrix it runs. A
// timeout_ms past maxTimeoutMs is refused with 400 bad_timeout. The cell
// count is checked against maxMatrixCells from the request's lengths
// alone, before any name is resolved or any seed list is built.
func (req *CampaignRequest) matrix() (campaign.Matrix, *requestError) {
	if int64(req.TimeoutMs) > maxTimeoutMs {
		return campaign.Matrix{}, &requestError{http.StatusBadRequest, "bad_timeout",
			fmt.Sprintf("timeout_ms %d exceeds %d", req.TimeoutMs, maxTimeoutMs)}
	}
	names := req.Workloads
	if len(names) == 0 {
		for _, spec := range experiments.Specs() {
			names = append(names, spec.Name)
		}
	}
	platforms := req.Platforms
	if len(platforms) == 0 {
		platforms = []string{"xeonmax"}
	}
	variants := len(req.Seeds)
	if variants == 0 {
		variants = max(req.SeedCount, 1)
	}
	// n > cap/cells is cells*n > cap without the overflow.
	cells := 1
	for _, n := range []int{len(names), len(platforms), variants} {
		if n > maxMatrixCells/cells {
			return campaign.Matrix{}, &requestError{http.StatusBadRequest, "matrix_too_large",
				fmt.Sprintf("matrix exceeds %d cells", maxMatrixCells)}
		}
		cells *= n
	}

	var m campaign.Matrix
	for _, name := range names {
		if !experiments.KnownWorkload(name) {
			return campaign.Matrix{}, &requestError{http.StatusNotFound, "unknown_workload",
				fmt.Sprintf("unknown workload %q (see GET /v1/workloads)", name)}
		}
		wl, err := experiments.WorkloadByName(name, req.Full)
		if err != nil {
			return campaign.Matrix{}, &requestError{http.StatusBadRequest, "bad_request", err.Error()}
		}
		if req.Runs > 0 {
			wl.Options.Runs = req.Runs
		}
		if req.Iterations > 0 {
			wl.Options.Iterations = req.Iterations
		}
		m.Workloads = append(m.Workloads, wl)
	}
	for _, name := range platforms {
		p, err := experiments.PlatformByName(name)
		if err != nil {
			return campaign.Matrix{}, &requestError{http.StatusBadRequest, "unknown_platform", err.Error()}
		}
		m.Platforms = append(m.Platforms, p)
	}
	seeds := req.Seeds
	for i := 0; len(req.Seeds) == 0 && i < req.SeedCount; i++ {
		seeds = append(seeds, uint64(i+1))
	}
	for _, seed := range seeds {
		m.Variants = append(m.Variants, campaign.Variant{
			Name:  fmt.Sprintf("seed%d", seed),
			Apply: func(o *core.Options) { o.Seed = seed },
		})
	}
	return m, nil
}

// WorkloadInfo describes one resolvable workload in GET /v1/workloads.
type WorkloadInfo struct {
	Name string `json:"name"`
	// Benchmark marks the Table I set: paper options and a full-size
	// instance are available.
	Benchmark bool `json:"benchmark"`
	// Grouped marks workloads analysed under a GroupBy policy.
	Grouped bool   `json:"grouped"`
	Seed    uint64 `json:"seed"`
}

// WorkloadsResponse is the body of GET /v1/workloads.
type WorkloadsResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
	Platforms []string       `json:"platforms"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	var out WorkloadsResponse
	seen := make(map[string]bool)
	for _, spec := range experiments.Specs() {
		seen[spec.Name] = true
		out.Workloads = append(out.Workloads, WorkloadInfo{
			Name:      spec.Name,
			Benchmark: true,
			Grouped:   spec.Options.GroupBy != nil,
			Seed:      spec.Options.Seed,
		})
	}
	for _, name := range workloads.Names() {
		if !seen[name] {
			out.Workloads = append(out.Workloads, WorkloadInfo{Name: name, Seed: 1})
		}
	}
	out.Platforms = experiments.PlatformNames()
	s.writeJSON(w, "/v1/workloads", out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// ReadyStatus is the body of GET /readyz: liveness is /healthz's job,
// readiness folds in drain state and cache health so a balancer stops
// routing to a daemon that is shutting down or persistently failing
// disk writes (degraded daemons still serve — compute-through — but a
// healthy peer is preferable).
type ReadyStatus struct {
	// Status is "ok", "degraded" or "draining" (draining wins).
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// SnapshotCacheDegraded / AnalysisCacheDegraded report a cache rung
	// whose publisher demoted to read-only after persistent write
	// failure (false when the rung is not configured).
	SnapshotCacheDegraded bool `json:"snapshot_cache_degraded"`
	AnalysisCacheDegraded bool `json:"analysis_cache_degraded"`
}

// readyStatus assembles the readiness report and whether it is a 200.
func (s *Server) readyStatus() (ReadyStatus, bool) {
	st := ReadyStatus{
		Status:                "ok",
		Draining:              s.draining.Load(),
		SnapshotCacheDegraded: s.cache != nil && s.cache.Degraded(),
		AnalysisCacheDegraded: s.analyses != nil && s.analyses.Degraded(),
	}
	if st.SnapshotCacheDegraded || st.AnalysisCacheDegraded {
		st.Status = "degraded"
	}
	if st.Draining {
		st.Status = "draining"
	}
	return st, st.Status == "ok"
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st, ready := s.readyStatus()
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.reg.Write(w); err != nil {
		s.log.Printf("hmptd: writing metrics: %v", err)
	}
}
