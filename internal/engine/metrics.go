package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"insightnotes/internal/exec"
	"insightnotes/internal/metrics"
	"insightnotes/internal/trace"
)

// timingSampleInterval is the statement sampling rate for per-operator
// wall-time histograms. Timing costs two clock reads per operator per row,
// so instead of paying it on every statement, every Nth statement runs with
// timing enabled and feeds the insightnotes_exec_op_seconds histograms.
// Counters (rows, merges, curates) are exact on every statement; only the
// latency histograms are sampled.
const timingSampleInterval = 16

// dbMetrics owns every metric the engine registers. A nil *dbMetrics
// (Config.DisableMetrics) turns all observation paths into no-ops; the
// metrics package's collectors are themselves nil-safe, so the hot paths
// stay branch-light either way.
type dbMetrics struct {
	reg *metrics.Registry

	statements  *metrics.CounterVec   // {kind}
	errors      *metrics.CounterVec   // {kind}
	seconds     *metrics.HistogramVec // {kind}
	slowQueries *metrics.Counter
	resultRows  *metrics.Counter

	opSeconds *metrics.HistogramVec // {op}, sampled
	opRows    *metrics.CounterVec   // {op}
	opBatches *metrics.CounterVec   // {op}
	opMerges  *metrics.CounterVec   // {op}
	opCurates *metrics.CounterVec   // {op}

	scanMorsels *metrics.Counter
	scanWorkers *metrics.Counter

	digestHits   *metrics.Counter
	digestMisses *metrics.Counter
	retrain      *metrics.Counter

	zoomRequests  *metrics.Counter
	zoomCancelled *metrics.Counter

	// sampleClock drives the timing sampling described above.
	sampleClock atomic.Int64
}

// newDBMetrics builds the registry for db: event counters owned here, plus
// function-backed collectors reading the engine's existing bookkeeping
// (zoom-in cache stats, annotation store sizes, summary store sizes, plan
// counters) at scrape time — those sources stay the single source of truth
// and are never double-counted.
func newDBMetrics(db *DB) *dbMetrics {
	reg := metrics.NewRegistry()
	m := &dbMetrics{
		reg:        reg,
		statements: reg.CounterVec(metrics.NameEngineStatementsTotal, "Statements executed, by statement kind.", "kind"),
		errors:     reg.CounterVec(metrics.NameEngineStatementErrorsTotal, "Statements that returned an error, by statement kind.", "kind"),
		seconds: reg.HistogramVec(metrics.NameEngineStatementSeconds,
			"Statement wall time in seconds, by statement kind.", "kind", metrics.DefLatencyBuckets),
		slowQueries: reg.Counter(metrics.NameEngineSlowQueriesTotal,
			"Statements at or above the slow-query threshold."),
		resultRows: reg.Counter(metrics.NameEngineResultRowsTotal,
			"Result rows returned to callers."),
		opSeconds: reg.HistogramVec(metrics.NameExecOpSeconds,
			"Cumulative per-statement operator wall time in seconds, by operator type (sampled).",
			"op", metrics.DefLatencyBuckets),
		opRows: reg.CounterVec(metrics.NameExecOpRowsTotal,
			"Rows produced by plan operators (intermediate rows included), by operator type.", "op"),
		opBatches: reg.CounterVec(metrics.NameExecOpBatchesTotal,
			"Batches produced by plan operators, by operator type.", "op"),
		opMerges: reg.CounterVec(metrics.NameExecOpMergesTotal,
			"Envelope merge/combine operations, by operator type.", "op"),
		opCurates: reg.CounterVec(metrics.NameExecOpCuratesTotal,
			"Envelope curation (coverage remap) operations, by operator type.", "op"),
		digestHits: reg.Counter(metrics.NameSummaryDigestHitsTotal,
			"Summarize-once digest cache hits (summarization skipped)."),
		digestMisses: reg.Counter(metrics.NameSummaryDigestMissesTotal,
			"Summarize-once digest cache misses (summarization performed)."),
		retrain: reg.Counter(metrics.NameSummaryRetrainTotal,
			"Classifier training samples ingested (each invalidates cached digests)."),
		zoomRequests: reg.Counter(metrics.NameZoominRequestsTotal,
			"Zoom-in requests (SQL and programmatic)."),
		zoomCancelled: reg.Counter(metrics.NameZoominCancelledTotal,
			"Zoom-in requests aborted by context cancellation or deadline."),
		scanMorsels: reg.Counter(metrics.NameExecScanMorselsTotal,
			"Morsels processed by base-table scans."),
		scanWorkers: reg.Counter(metrics.NameExecScanWorkersTotal,
			"Workers that ran base-table scans: one per inline scan, the pool size otherwise."),
	}

	// Zoom-in materialization cache: the cache's own stats are authoritative.
	cache := db.cache
	reg.CounterFunc(metrics.NameZoominCacheHitsTotal, "Zoom-in cache hits.",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc(metrics.NameZoominCacheMissesTotal, "Zoom-in cache misses (result re-executed).",
		func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc(metrics.NameZoominCacheEvictionsTotal, "Zoom-in cache evictions under the byte budget.",
		func() float64 { return float64(cache.Stats().Evictions) })
	reg.CounterFunc(metrics.NameZoominCachePutsTotal, "Results admitted into the zoom-in cache.",
		func() float64 { return float64(cache.Stats().Puts) })
	reg.CounterFunc(metrics.NameZoominCacheRejectedTotal, "Results too large for the zoom-in cache budget.",
		func() float64 { return float64(cache.Stats().Rejected) })
	reg.GaugeFunc(metrics.NameZoominCacheBytes, "Bytes resident in the zoom-in cache.",
		func() float64 { return float64(cache.Stats().UsedBytes) })
	reg.GaugeFunc(metrics.NameZoominCacheEntries, "Entries resident in the zoom-in cache.",
		func() float64 { return float64(cache.Stats().Entries) })

	// Plan cache: the cache's own counters are authoritative (absent when
	// Config.PlanCacheSize < 0 disabled it).
	if pcache := db.planCache; pcache != nil {
		reg.CounterFunc(metrics.NamePlancacheHits, "Plan-cache hits (parse and access-path costing skipped).",
			func() float64 { return float64(pcache.Stats().Hits) })
		reg.CounterFunc(metrics.NamePlancacheMisses, "Plan-cache misses (cacheable statement parsed and costed).",
			func() float64 { return float64(pcache.Stats().Misses) })
		reg.CounterFunc(metrics.NamePlancacheEvictions, "Plan-cache entries evicted past the LRU capacity.",
			func() float64 { return float64(pcache.Stats().Evictions) })
		reg.GaugeFunc(metrics.NamePlancacheEntries, "Statement templates currently in the plan cache.",
			func() float64 { return float64(pcache.Stats().Entries) })
	}

	// Metadata store sizes — the paper's motivating quantity ("even
	// metadata is getting big").
	// Store pointers are snapshotted under db.mu: a replica snapshot
	// resync replaces them wholesale, and scrapes arrive off the statement
	// lock.
	reg.GaugeFunc(metrics.NameEngineAnnotations, "Raw annotations stored.",
		func() float64 { return float64(db.annStore().Count()) })
	reg.GaugeFunc(metrics.NameEngineAnnotationBytes, "Approximate bytes of raw annotation text stored.",
		func() float64 { return float64(db.annStore().RawBytes()) })
	reg.GaugeFunc(metrics.NameEngineEnvelopes, "Maintained per-tuple summary envelopes.",
		func() float64 { return float64(db.envStore().count()) })
	reg.GaugeFunc(metrics.NameEngineSummaryBytes, "Approximate bytes of the summary store (all tables).",
		func() float64 { return float64(db.envStore().totalBytes()) })
	reg.GaugeFunc(metrics.NameEngineDigestEntries, "Cached summarize-once digests.",
		func() float64 {
			db.mu.RLock()
			defer db.mu.RUnlock()
			n := 0
			for _, byAnn := range db.digests {
				n += len(byAnn)
			}
			return float64(n)
		})

	// Summarize calls, summed over all registered instances at scrape time.
	reg.CounterFunc(metrics.NameSummarySummarizeTotal, "Summarize invocations across all summary instances.",
		func() float64 {
			cat := db.catStore()
			var n int64
			for _, name := range cat.InstanceNames() {
				if in, err := cat.Instance(name); err == nil {
					n += in.SummarizeCalls()
				}
			}
			return float64(n)
		})

	// Buffer pool: every heap page (tables, annotations, envelope records)
	// moves through these frames, so hit/miss/eviction rates are the
	// first-order signal of whether PoolFrames fits the working set.
	pool := db.pool
	reg.CounterFunc(metrics.NameBufferpoolHits, "Buffer-pool pins served from a resident frame.",
		func() float64 { h, _ := pool.Stats(); return float64(h) })
	reg.CounterFunc(metrics.NameBufferpoolMisses, "Buffer-pool pins that fetched the page from the store.",
		func() float64 { _, miss := pool.Stats(); return float64(miss) })
	reg.CounterFunc(metrics.NameBufferpoolEvictions, "Buffer-pool frames evicted to make room.",
		func() float64 { return float64(pool.Evictions()) })

	// Integrity: scrubber progress from the engine's bookkeeping, plus the
	// pool's own read-path verification failures and quarantine set.
	reg.CounterFunc(metrics.NameIntegrityPagesScanned, "Pages verified by scrub sweeps and CHECK TABLE.",
		func() float64 { return float64(db.integrity.scanned.Load()) })
	reg.CounterFunc(metrics.NameIntegrityChecksumFailures,
		"Page verification failures: scrub-detected faults plus read-path checksum failures.",
		func() float64 { return float64(db.integrity.failures.Load() + pool.ReadFailures()) })
	reg.CounterFunc(metrics.NameIntegrityRepairs, "Pages repaired (reflushed, rebuilt locally, or refetched from a peer).",
		func() float64 { return float64(db.integrity.repairs.Load()) })
	reg.GaugeFunc(metrics.NameIntegrityQuarantined, "Pages currently quarantined pending a repair source.",
		func() float64 { return float64(len(pool.Quarantined())) })

	// Planner decision counters, shared with every planner the DB builds.
	pc := db.cfg.PlanOptions.Counters
	reg.CounterFunc(metrics.NamePlanPlansTotal, "SELECT plans built.",
		func() float64 { return float64(pc.Plans.Load()) })
	paths := reg.CounterVec(metrics.NamePlanAccessPathsTotal,
		"Access paths chosen per planned base relation, by path type.", "path")
	paths.WithFunc("full_scan", func() float64 { return float64(pc.FullScans.Load()) })
	paths.WithFunc("index_scan", func() float64 { return float64(pc.IndexScans.Load()) })
	paths.WithFunc("index_range_scan", func() float64 { return float64(pc.IndexRangeScans.Load()) })

	// Lifecycle tracer: collection and retention counters read from the
	// tracer's own bookkeeping at scrape time.
	if tr := db.tracer; tr != nil {
		reg.CounterFunc(metrics.NameTraceStartedTotal, "Statement lifecycle traces begun.",
			func() float64 { return float64(tr.Stats().Started) })
		reg.CounterFunc(metrics.NameTraceRetainedTotal, "Completed traces admitted to the retained-trace ring.",
			func() float64 { return float64(tr.Stats().Retained) })
		reg.CounterFunc(metrics.NameTraceSampledOutTotal, "Ordinary completed traces dropped by the tail sampler.",
			func() float64 { return float64(tr.Stats().SampledOut) })
		reg.CounterFunc(metrics.NameTraceEvictedTotal, "Retained traces evicted by the ring bound.",
			func() float64 { return float64(tr.Stats().Evicted) })
		reg.GaugeFunc(metrics.NameTraceResident, "Traces currently resident in the retained-trace ring.",
			func() float64 { return float64(tr.Stats().Resident) })
	}

	// Build identity and process age, the two facts every dashboard joins
	// everything else against.
	reg.GaugeVec(metrics.NameBuildInfo,
		"Build information; the value is always 1, the version label carries engine and Go versions.",
		"version").With(Version + " " + runtime.Version()).Set(1)
	reg.GaugeFunc(metrics.NameProcessUptimeSeconds, "Seconds since this engine instance was opened.",
		func() float64 { return time.Since(db.start).Seconds() })

	return m
}

// Metrics exposes the engine's metric registry for scraping (the /metrics
// sidecar and the server's SHOW METRICS path). Nil when metrics are
// disabled.
func (db *DB) Metrics() *metrics.Registry {
	if db.metrics == nil {
		return nil
	}
	return db.metrics.reg
}

// newExecContext builds the per-statement execution context: batch size
// from the statement options (falling back to Config.BatchSize), tracing
// when requested, and operator timing on sampled statements (see
// timingSampleInterval).
func (db *DB) newExecContext(ctx context.Context, so stmtOptions) *exec.ExecContext {
	ec := exec.NewContext(ctx)
	if so.batchSize > 0 {
		ec.WithBatchSize(so.batchSize)
	} else if db.cfg.BatchSize > 0 {
		ec.WithBatchSize(db.cfg.BatchSize)
	}
	if so.trace {
		ec.WithTrace()
	}
	if m := db.metrics; m != nil && m.sampleClock.Add(1)%timingSampleInterval == 0 {
		ec.WithTiming()
	}
	return ec
}

// finishStatement records one completed statement: kind-labeled counters and
// latency, result-row volume, the lifecycle trace's retention decision, and
// — when the statement crossed the configured threshold — the slow-query
// counter and structured log entry. The trace id is cross-linked into the
// result and the slow-query entry so all three observability channels
// reference the same statement.
func (db *DB) finishStatement(kind, sqlText string, start time.Time, res *Result, err error, so stmtOptions) {
	now := time.Now()
	wall := now.Sub(start)
	var traceID string
	if at := so.lifecycle; at != nil {
		// The id is read before Finish: Finish is the owner's last touch of
		// the builder, which recycles for a later statement.
		traceID = at.ID().String()
	}
	// The same clock read serves the metrics wall and the trace end.
	so.lifecycle.FinishAt(kind, err, now)
	if res != nil {
		res.TraceID = traceID
		if res.Stats != nil {
			res.Stats.QueueWait = so.queueWait
		}
	}
	if m := db.metrics; m != nil {
		m.statements.With(kind).Inc()
		if err != nil {
			m.errors.With(kind).Inc()
		}
		m.seconds.With(kind).Observe(wall.Seconds())
		if res != nil {
			m.resultRows.Add(int64(len(res.Rows)))
		}
	}
	if thr := db.cfg.SlowQueryThreshold; thr > 0 && wall >= thr {
		if m := db.metrics; m != nil {
			m.slowQueries.Inc()
		}
		if sink := db.cfg.SlowQueryLog; sink != nil {
			sink.EmitSlowQuery(slowQueryEntry(kind, sqlText, wall, res, err, traceID, so.queueWait))
		}
	}
}

// foldOpStats folds one executed plan's per-operator counters into the
// cumulative per-operator-type families and returns the per-operator rows
// for Result.Ops. Latency histograms are fed only on sampled statements;
// the other counters are exact. When the statement carries a lifecycle
// exec span, the plan's operators are additionally synthesized as spans
// under it — stats and spans share this one plumbing.
func (db *DB) foldOpStats(op exec.Operator, ec *exec.ExecContext) []OpStat {
	if sp := ec.Span(); sp != nil {
		synthOpSpans(sp, op)
	}
	var ops []OpStat
	m := db.metrics
	timed := ec.HistogramSampled()
	exec.WalkStats(op, func(name string, st exec.OpStats) {
		ops = append(ops, OpStat{
			Op: name, Rows: st.Rows, Merges: st.Merges, Curates: st.Curates,
			WallMicros: st.Wall.Microseconds(),
			Batches:    st.Batches, Workers: st.Workers, Morsels: st.Morsels,
		})
		if m == nil {
			return
		}
		m.opRows.With(name).Add(st.Rows)
		if st.Batches > 0 {
			m.opBatches.With(name).Add(st.Batches)
		}
		if st.Merges > 0 {
			m.opMerges.With(name).Add(st.Merges)
		}
		if st.Curates > 0 {
			m.opCurates.With(name).Add(st.Curates)
		}
		if st.Morsels > 0 {
			m.scanMorsels.Add(st.Morsels)
		}
		if st.Workers > 0 {
			m.scanWorkers.Add(int64(st.Workers))
		}
		if timed {
			m.opSeconds.With(name).Observe(st.Wall.Seconds())
		}
	})
	return ops
}

// synthOpSpans records the executed plan's operator tree as spans under
// the statement's exec span. Operator spans are synthesized after the plan
// drains — from the same OpStats the metrics fold reads — rather than
// opened live, so parallel workers never touch the single-goroutine trace
// builder. Each span inherits its parent's start offset and carries the
// operator's cumulative wall (inclusive of children; the renderer derives
// self-time), so tree shape and relative weight survive even though exact
// interleavings are not recorded. Walls are non-zero only for the
// histogram-sampled subset of statements; ordinary traced statements get
// the operator tree with row counts but zero walls, because per-batch
// clock reads would dominate the tracing budget.
func synthOpSpans(parent *trace.SpanHandle, op exec.Operator) {
	var st exec.OpStats
	if in, ok := op.(exec.Instrumented); ok {
		st = in.Stats()
	}
	sp := parent.AddChild(trace.OpSpan(exec.OperatorName(op)), st.Wall)
	sp.AttrInt("rows", st.Rows)
	if st.Workers > 0 {
		sp.AttrInt("workers", int64(st.Workers))
	}
	if st.Morsels > 0 {
		sp.AttrInt("morsels", st.Morsels)
	}
	if d, ok := op.(exec.Described); ok {
		for _, child := range d.Children() {
			synthOpSpans(sp, child)
		}
	}
}
