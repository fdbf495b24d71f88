package server

import (
	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
	"hmpt/internal/server/metrics"
	"hmpt/internal/trace"
)

// serverMetrics is the daemon's metric surface. The naming scheme is
// documented in DESIGN.md ("Serving layer"): every family is prefixed
// hmptd_, counters end in _total, latencies are _seconds histograms,
// and the cache rungs share one family per rung with an `op` label.
//
// The work counters (zero-work ladder, coalescing, recovered panics)
// are read from the server's root ledger at scrape time: every
// request's run counts on a child of it. The daemon-smoke gate takes
// deltas between scrapes of these lifetime totals.
type serverMetrics struct {
	reg *metrics.Registry

	requests      *metrics.CounterVec   // hmptd_requests_total{endpoint}
	errors        *metrics.CounterVec   // hmptd_request_errors_total{code}
	inflight      *metrics.Gauge        // hmptd_requests_inflight
	requestSec    *metrics.HistogramVec // hmptd_request_seconds{endpoint}
	stageSec      *metrics.HistogramVec // hmptd_stage_seconds{stage}
	captures      *metrics.CounterVec   // hmptd_captures_total{outcome}
	cells         *metrics.CounterVec   // hmptd_campaign_cells_total{outcome}
	cancellations *metrics.Counter      // hmptd_request_cancellations_total
	timeouts      *metrics.Counter      // hmptd_request_timeouts_total
	httpPanics    *metrics.Counter      // hmptd_http_panics_total
}

func newMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg}

	m.requests = reg.NewCounterVec("hmptd_requests_total",
		"Requests received, by endpoint.", "endpoint")
	m.errors = reg.NewCounterVec("hmptd_request_errors_total",
		"Requests answered with a structured error, by error code.", "code")
	m.inflight = reg.NewGauge("hmptd_requests_inflight",
		"Requests currently being handled.")
	m.requestSec = reg.NewHistogramVec("hmptd_request_seconds",
		"Whole-request latency, by endpoint.", "endpoint", nil)
	m.stageSec = reg.NewHistogramVec("hmptd_stage_seconds",
		"Per-stage latency: decode, run (campaign engine), encode.", "stage", nil)
	m.captures = reg.NewCounterVec("hmptd_captures_total",
		"Reference-run resolutions by outcome: executed, cache_hit, derived, coalesced.", "outcome")
	m.cells = reg.NewCounterVec("hmptd_campaign_cells_total",
		"Campaign cells served, by outcome: analysis_hit, computed, error.", "outcome")
	m.cancellations = reg.NewCounter("hmptd_request_cancellations_total",
		"Requests answered 499 because the client disconnected mid-run.")
	m.timeouts = reg.NewCounter("hmptd_request_timeouts_total",
		"Requests answered 504 because their deadline passed mid-run.")
	m.httpPanics = reg.NewCounter("hmptd_http_panics_total",
		"Handler panics recovered into a 500 by the serving middleware.")

	reg.NewGaugeFunc("hmptd_queue_depth",
		"Requests waiting for a campaign run slot.",
		func() float64 { return float64(s.queued.Load()) })

	// The work the root ledger counted, daemon-wide: a warm daemon's
	// scrapes show the zero-work ladder (the first four) flat while
	// requests flow; coalescing is the serving-layer exactly-once
	// surface.
	for _, c := range []struct {
		name, help string
		field      func(core.Work) int64
	}{
		{"hmptd_kernel_executions_total", "Workload kernels executed for reference captures (daemon-wide).",
			func(w core.Work) int64 { return w.Kernels }},
		{"hmptd_sample_passes_total", "IBS sampling passes over a trace (daemon-wide).",
			func(w core.Work) int64 { return w.SamplePasses }},
		{"hmptd_sweep_evaluations_total", "Placement-space probe and sweep passes (daemon-wide).",
			func(w core.Work) int64 { return w.SweepEvaluations }},
		{"hmptd_derived_snapshots_total", "Snapshots synthesized from a family sibling (daemon-wide).",
			func(w core.Work) int64 { return w.Derived }},
		{"hmptd_seed_derivations_total", "Derived snapshots transposed across seeds from their base capture (daemon-wide).",
			func(w core.Work) int64 { return w.SeedDerived }},
		{"hmptd_coalesced_requests_total", "Capture/analysis computations served from an in-flight or retained single-flight entry (daemon-wide).",
			func(w core.Work) int64 { return w.Coalesced }},
		{"hmptd_recovered_panics_total", "Panics recovered inside campaign computations (daemon-wide); each failed one cell, not the process.",
			func(w core.Work) int64 { return w.RecoveredPanics }},
	} {
		reg.NewCounterFunc(c.name, c.help, func() float64 { return float64(c.field(s.work.Work())) })
	}
	reg.NewGaugeFunc("hmptd_flights_inflight",
		"Capture/analysis computations currently executing in the shared flight group.",
		func() float64 { return float64(s.flights.InFlight()) })
	reg.NewGaugeFunc("hmptd_flight_waiters",
		"Requests currently blocked on another request's in-flight computation.",
		func() float64 { return float64(s.flights.Waiters()) })
	reg.NewGaugeFunc("hmptd_flights_retained",
		"Completed entries in the shared flight group, the process's one in-process store: finished computations and retained cache hits, at most what the memo budget holds.",
		func() float64 { return float64(s.flights.Retained()) })
	reg.NewCounterFunc("hmptd_memo_evictions_total",
		"Completed entries evicted from the flight group, least recently used first, to stay within the memo budget; an evicted key falls through to the disk caches.",
		func() float64 { return float64(s.flights.Evictions()) })

	// Cache traffic per rung. A rung that is not configured reports a
	// frozen all-zero family rather than disappearing from the scrape.
	snapStats := func() trace.CacheStats {
		if s.cache == nil {
			return trace.CacheStats{}
		}
		return s.cache.Stats()
	}
	anStats := func() core.CacheStats {
		if s.analyses == nil {
			return core.CacheStats{}
		}
		return s.analyses.Stats()
	}
	reg.NewCounterVecFunc("hmptd_snapshot_cache_ops_total",
		"On-disk snapshot cache traffic, by op: hit, miss, error, store.", "op",
		func() map[string]float64 {
			st := snapStats()
			return map[string]float64{
				"hit": float64(st.Hits), "miss": float64(st.Misses),
				"error": float64(st.Errors), "store": float64(st.Stores),
			}
		})
	reg.NewCounterVecFunc("hmptd_analysis_cache_ops_total",
		"On-disk analysis cache traffic, by op: hit, miss, error, store.", "op",
		func() map[string]float64 {
			st := anStats()
			return map[string]float64{
				"hit": float64(st.Hits), "miss": float64(st.Misses),
				"error": float64(st.Errors), "store": float64(st.Stores),
			}
		})

	// Fault tolerance: injected faults (zero family without an armed
	// injector), per-rung publisher resilience events
	// and the degraded-mode gauges the chaos smoke watches flip 0→1→0.
	reg.NewCounterVecFunc("hmptd_faults_injected_total",
		"Faults injected by the chaos filesystem layer, by kind: eio, enospc, torn, latency.", "kind",
		func() map[string]float64 {
			var st faultfs.Stats
			if s.cfg.Injector != nil {
				st = s.cfg.Injector.Stats()
			}
			return map[string]float64{
				"eio": float64(st.EIO), "enospc": float64(st.ENOSPC),
				"torn": float64(st.Torn), "latency": float64(st.Latency),
			}
		})
	snapPub := func() fsatomic.PublisherStats {
		if s.cache == nil {
			return fsatomic.PublisherStats{}
		}
		return s.cache.Publisher().Stats()
	}
	anPub := func() fsatomic.PublisherStats {
		if s.analyses == nil {
			return fsatomic.PublisherStats{}
		}
		return s.analyses.Publisher().Stats()
	}
	pubVals := func(st fsatomic.PublisherStats) map[string]float64 {
		return map[string]float64{
			"retry": float64(st.Retries), "absorbed": float64(st.Absorbed),
			"demotion": float64(st.Demotions), "reprobe": float64(st.Reprobes),
			"recovery": float64(st.Recoveries), "suppressed": float64(st.Suppressed),
		}
	}
	reg.NewCounterVecFunc("hmptd_snapshot_publish_total",
		"Snapshot-cache publish resilience events: retry, absorbed, demotion, reprobe, recovery, suppressed.", "event",
		func() map[string]float64 { return pubVals(snapPub()) })
	reg.NewCounterVecFunc("hmptd_analysis_publish_total",
		"Analysis-cache publish resilience events: retry, absorbed, demotion, reprobe, recovery, suppressed.", "event",
		func() map[string]float64 { return pubVals(anPub()) })
	reg.NewGaugeVecFunc("hmptd_cache_degraded",
		"1 while the rung's publisher is demoted to read-only/compute-through, by cache: snapshot, analysis.", "cache",
		func() map[string]float64 {
			vals := map[string]float64{"snapshot": 0, "analysis": 0}
			if s.cache != nil && s.cache.Degraded() {
				vals["snapshot"] = 1
			}
			if s.analyses != nil && s.analyses.Degraded() {
				vals["analysis"] = 1
			}
			return vals
		})
	reg.NewGaugeFunc("hmptd_draining",
		"1 after BeginDrain: the daemon answers /readyz 503 and is winding down.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	return m
}

// observeResult folds one campaign result into the outcome counters.
func (s *Server) observeResult(res *campaign.Result) {
	m := s.met
	m.captures.Add("executed", int64(res.Executions))
	m.captures.Add("cache_hit", int64(res.CacheHits))
	m.captures.Add("derived", int64(res.Derived))
	m.captures.Add("coalesced", int64(res.Coalesced))
	for i := range res.Cells {
		switch {
		case res.Cells[i].Err != nil:
			m.cells.Inc("error")
		case res.Cells[i].AnalysisFromCache:
			m.cells.Inc("analysis_hit")
		default:
			m.cells.Inc("computed")
		}
	}
}
