// Package engine assembles the InsightNotes system: the relational
// substrate (catalog, storage, executor), the raw-annotation store, the
// summary store with incremental maintenance and the summarize-once
// optimization, QID-registered query execution with summary propagation,
// and zoom-in processing over the RCO-managed materialization cache.
//
// DB is the public entry point; the root package insightnotes re-exports
// it as the library API.
package engine

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/metrics"
	"insightnotes/internal/plan"
	"insightnotes/internal/storage"
	"insightnotes/internal/summary"
	"insightnotes/internal/textmining"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
	"insightnotes/internal/zoomin"
)

// Version is the engine version reported by insightnotes_build_info.
const Version = "0.9.0"

// DefaultTraceSample is the default probability that a statement is
// promoted to detailed span collection — and therefore the retention
// probability for ordinary (neither slow nor errored) statement traces.
const DefaultTraceSample = 0.05

// Config tunes a DB instance. The zero value plus defaults gives an
// in-memory engine with a temp-dir zoom-in cache.
type Config struct {
	// PoolFrames is the capacity, in 8 KiB frames, of the buffer pool over
	// the raw annotation text (default 256). Table rows are not paged: they
	// live in memory.
	PoolFrames int
	// PageFile, when set, backs the buffer pool with a file-based page
	// store at this path instead of the in-memory store, so annotation-text
	// pages spill to disk when they outgrow PoolFrames. The file is a paging layer, not a recovery
	// source — Open truncates any existing file; the WAL and checkpoint
	// remain the durable source of truth. OpenDurable defaults it
	// to <dir>/pages.db.
	PageFile string
	// CacheDir is the directory of the zoom-in cache's one spill file,
	// which holds the results zoom-ins referenced once they leave memory
	// and is truncated on open (default: a fresh temp directory, removed
	// again by Close).
	CacheDir string
	// CacheBudget bounds the zoom-in cache in bytes, live results and
	// spilled ones together (default 4 MiB).
	CacheBudget int64
	// CachePolicy selects the replacement policy (default RCO).
	CachePolicy zoomin.Policy
	// PlanOptions are applied to every query (ablation switches).
	PlanOptions plan.Options
	// PlanCacheSize bounds the engine plan cache in entries: 0 means
	// plan.DefaultCacheSize, negative disables plan caching entirely
	// (every statement re-parses and re-costs; prepared statements still
	// work, they just lose the cache). See prepared.go.
	PlanCacheSize int
	// BatchSize is the executor's rows-per-batch pipeline granularity
	// (default exec.DefaultBatchSize). Per-statement WithBatchSize
	// overrides it.
	BatchSize int
	// DisableSummarizeOnce turns off the invariant-driven summarize-once
	// optimization (one digest per annotation for all its tuples), for the
	// E5 ablation.
	DisableSummarizeOnce bool
	// DisableMetrics turns off the metrics registry entirely: no counters
	// are registered and every observation path is a no-op. For overhead
	// benchmarks and minimal embedded use.
	DisableMetrics bool
	// SlowQueryThreshold, when positive, marks statements whose wall time
	// reaches it as slow: they increment the slow-query counter and are
	// emitted to SlowQueryLog.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives structured entries for slow statements (nil
	// disables emission; the counter still counts). See NewJSONSlowQueryLog.
	SlowQueryLog SlowQuerySink
	// MaintenanceQueueDepth bounds the deferred summary-maintenance queue
	// used in degraded mode (default 1024). When the queue is full,
	// annotation ingestion blocks until the catch-up worker frees a slot.
	MaintenanceQueueDepth int
	// TraceSample is the probability that a statement is promoted to
	// detailed span collection, and therefore the retention probability for
	// ordinary statement traces (slow and errored traces are always
	// retained — as span-less shells when they were not promoted). Zero
	// means DefaultTraceSample; negative disables promotion entirely.
	TraceSample float64
	// TraceCapacity bounds the retained-trace ring (default 512).
	TraceCapacity int
	// DisableTracing turns the statement lifecycle tracer off entirely: no
	// spans are collected and SHOW TRACES reports tracing disabled.
	DisableTracing bool
	// ScrubInterval, when positive, starts the background integrity
	// scrubber: every interval it sweeps all annotation pages through
	// checksum and structural verification and repairs (or quarantines)
	// what it finds, then checks every table's indexes. Zero leaves only
	// the synchronous paths (CHECK TABLE, ScrubNow).
	ScrubInterval time.Duration
	// ScrubRate caps the background sweep at this many pages per second
	// (default DefaultScrubRate). Synchronous checks are never throttled.
	ScrubRate int
	// MaintenanceLatencyThreshold, when positive, enables automatic
	// degradation: when the moving average of synchronous per-annotation
	// summary-maintenance latency crosses it, subsequent maintenance is
	// deferred to the background catch-up worker until the queue drains.
	// Zero leaves only manual degradation (SetDegraded).
	MaintenanceLatencyThreshold time.Duration
}

// DB is one InsightNotes database instance.
//
// Concurrency: DB is safe for concurrent use. Statements synchronize on a
// database-level reader/writer lock — reads (SELECT, SHOW, ZOOMIN, Save)
// run concurrently with each other; writes (DDL, DML, annotation
// ingestion/retraction, link changes) are exclusive, and all of them, SQL
// or programmatic, take the lock in one place: commit, in statements.go.
type DB struct {
	cfg  Config
	pool *storage.BufferPool
	// store is the physical page store under the pool (closed by Close).
	store storage.PageStore
	cat   *catalog.Catalog
	anns  *annotation.Store

	// stmtMu is the statement-level reader/writer lock described above.
	stmtMu sync.RWMutex

	// mu serializes summary maintenance (applyTasks).
	//
	// Each tuple's summary envelope lives in its row's slot in the catalog
	// table (catalog.Row) and goes with the row. A stored envelope is
	// written in place only under the exclusive statement lock, so the
	// readers holding the shared one (SELECT, ZOOMIN, Save) never see a
	// write. The catch-up worker, which holds no statement lock, writes a
	// view and swaps it into the slot (applyTasks). Readers outside any
	// statement (EnvelopeFor, SummaryBytes, metric scrapes) take the
	// shared statement lock, then the table lock.
	mu sync.Mutex

	// cache materializes SELECT results for zoom-in and keeps the QID → SQL
	// registry for re-execution on a miss. ownsCacheDir: Open created its
	// directory, so Close removes it.
	cache        *zoomin.Cache
	ownsCacheDir bool

	// planCache caches parsed statement templates and memoized access-path
	// choices, keyed on normalized SQL (nil when Config.PlanCacheSize < 0).
	// preparedMu guards the PREPARE/EXECUTE registry in prepared.
	planCache  *plan.Cache
	preparedMu sync.RWMutex
	prepared   map[string]*preparedStmt
	nextQID    atomic.Int64
	// metrics is the engine-wide observability registry (nil when
	// Config.DisableMetrics is set).
	metrics *dbMetrics
	// tracer owns statement lifecycle traces and the retained-trace ring
	// (nil when Config.DisableTracing is set).
	tracer *trace.Tracer
	// writeSpan is the exec span of the mutation currently inside the commit
	// shell; logRecord and the row matcher hang their spans (wal.append,
	// stmt.plan) under it without threading a handle through every call.
	// Guarded by stmtMu (exclusive); nil outside the shell and for untraced
	// mutations.
	writeSpan *trace.SpanHandle
	// start anchors the process-uptime gauge.
	start time.Time
	// annClock supplies Created timestamps deterministically when callers
	// don't provide one.
	annClock atomic.Int64
	// maint owns degraded-mode summary maintenance: the deferred-task
	// queue, the catch-up worker, and staleness accounting (see
	// maintenance.go). Always non-nil after Open.
	maint *maintenance

	// integrity is the scrubber's cumulative bookkeeping (see
	// integrity.go); scrub is the background sweep worker (nil unless
	// Config.ScrubInterval is set).
	integrity integrityState
	scrub     *scrubber

	// Durability state (nil/zero when the DB was opened without OpenDurable;
	// see durability.go). wal is attached only after recovery completes, so
	// replayed mutations are never re-logged.
	wal           *wal.Log
	walDir        string
	autoCkptBytes int64
	// pendingSync holds the group-commit token of the record staged by the
	// mutation currently inside the commit shell; the shell takes it
	// (takePendingSync) before unlocking and waits on the shared commit
	// fsync after release, so concurrent writers batch their fsyncs.
	// Guarded by stmtMu (exclusive).
	pendingSync wal.SyncToken
	// walBuf is reused to encode each logged record's body. Guarded by
	// stmtMu (exclusive).
	walBuf []byte
	// redoing is set while recovery or a replica applies logged records:
	// their annotations are then maintained synchronously, never deferred
	// (see applyAnnotates). Guarded by stmtMu (exclusive).
	redoing bool
	// detached holds the ids of annotations a redone drop_table removed:
	// an older log, whose DROP TABLE left them in place, may drop one by
	// id later, and redoing that drop is a no-op. Guarded by stmtMu.
	detached map[annotation.ID]bool
	// recoveredLSN is the included-LSN mark of the checkpoint this DB was
	// loaded from (0 when fresh); WAL replay skips records at or below it.
	recoveredLSN uint64
	// recovery reports what the last OpenDurable found (for metrics).
	recovery RecoveryInfo
	// ckptTotal / ckptSeconds observe checkpoints when metrics are enabled.
	ckptTotal   *metrics.Counter
	ckptSeconds *metrics.Histogram
}

// Open creates a DB with the given configuration.
func Open(cfg Config) (*DB, error) {
	if cfg.PoolFrames <= 0 {
		cfg.PoolFrames = 256
	}
	if cfg.CacheBudget <= 0 {
		cfg.CacheBudget = 4 << 20
	}
	ownsCacheDir := cfg.CacheDir == ""
	if ownsCacheDir {
		dir, err := os.MkdirTemp("", "insightnotes-cache-")
		if err != nil {
			return nil, err
		}
		cfg.CacheDir = dir
	}
	if cfg.CachePolicy == nil {
		cfg.CachePolicy = zoomin.RCO{}
	}
	cache, err := zoomin.NewCache(cfg.CacheDir, cfg.CacheBudget, cfg.CachePolicy)
	if err != nil {
		if ownsCacheDir {
			os.RemoveAll(cfg.CacheDir)
		}
		return nil, err
	}
	if cfg.PlanOptions.Counters == nil {
		cfg.PlanOptions.Counters = &plan.Counters{}
	}
	var store storage.PageStore = storage.NewMemStore()
	if cfg.PageFile != "" {
		// The page file is an ephemeral paging layer: recovery rebuilds all
		// state from the snapshot and WAL, so a stale file from a previous
		// process must not be reattached. Remove-then-create also orphans
		// the inode under any zombie process still holding it open.
		os.Remove(cfg.PageFile)
		fs, err := storage.OpenFileStore(cfg.PageFile)
		if err != nil {
			cache.Close()
			if ownsCacheDir {
				os.RemoveAll(cfg.CacheDir)
			}
			return nil, err
		}
		store = fs
	}
	pool := storage.NewBufferPool(store, cfg.PoolFrames)
	db := &DB{
		cfg:      cfg,
		pool:     pool,
		store:    store,
		cat:      catalog.New(),
		anns:     annotation.NewStore(pool),
		cache:    cache,
		prepared: make(map[string]*preparedStmt),
		detached: make(map[annotation.ID]bool),
		start:    time.Now(),

		ownsCacheDir: ownsCacheDir,
	}
	if cfg.PlanCacheSize >= 0 {
		db.planCache = plan.NewCache(cfg.PlanCacheSize)
	}
	if !cfg.DisableTracing {
		sample := cfg.TraceSample
		switch {
		case sample == 0:
			sample = DefaultTraceSample
		case sample < 0:
			sample = 0
		}
		db.tracer = trace.New(trace.Config{
			Sample:        sample,
			SlowThreshold: cfg.SlowQueryThreshold,
			Capacity:      cfg.TraceCapacity,
		})
	}
	if !cfg.DisableMetrics {
		db.metrics = newDBMetrics(db)
	}
	db.maint = newMaintenance(db, cfg.MaintenanceQueueDepth, cfg.MaintenanceLatencyThreshold)
	if db.metrics != nil {
		db.maint.registerMetrics(db.metrics.reg)
	}
	if cfg.ScrubInterval > 0 {
		db.scrub = startScrubber(db, cfg.ScrubInterval, cfg.ScrubRate)
	}
	return db, nil
}

// MustOpen is Open for tests and examples; it panics on error.
func MustOpen(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// Catalog exposes the metadata layer.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Annotations exposes the raw-annotation store.
func (db *DB) Annotations() *annotation.Store { return db.anns }

// Cache exposes the zoom-in materialization cache (for stats in benchmarks
// and the REPL).
func (db *DB) Cache() *zoomin.Cache { return db.cache }

// Tracer exposes the statement lifecycle tracer (nil when tracing is
// disabled) — the server's /traces sidecar endpoint reads it.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// EnvelopeFor implements exec.EnvelopeSource: a copy-on-write view of the
// maintained envelope of a base tuple (nil when unannotated), which the
// caller may change through the summary methods without affecting the
// stored one. It is safe outside any statement: it takes the shared
// statement lock, so it never overlaps an in-place write.
func (db *DB) EnvelopeFor(table string, row types.RowID) *summary.Envelope {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	if tbl, err := db.cat.Table(table); err == nil {
		if env := tbl.Envelope(row); env != nil {
			return env.View()
		}
	}
	return nil
}

// SummaryBytes reports the total approximate size of the summary store for
// table — the numerator of the E1 compression experiment. Like
// EnvelopeFor, it is safe outside any statement.
func (db *DB) SummaryBytes(table string) int64 {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	_, n := db.envelopeStats(table)
	return n
}

// envelopeStats counts and sizes the stored envelopes of tables, of every
// table when none is named. Callers hold the statement lock.
func (db *DB) envelopeStats(tables ...string) (count int, bytes int64) {
	if len(tables) == 0 {
		tables = db.cat.TableNames()
	}
	for _, name := range tables {
		if tbl, err := db.cat.Table(name); err == nil {
			n, b := tbl.EnvelopeStats()
			count, bytes = count+n, bytes+b
		}
	}
	return count, bytes
}

// Close stops the maintenance catch-up worker (draining its queue),
// releases the durability log when attached, closes the zoom-in cache's
// spill file (removing the cache directory if Open created it), and closes
// the page store.
func (db *DB) Close() error {
	if db.scrub != nil {
		db.scrub.close()
	}
	db.maint.close()
	var err error
	if db.wal != nil {
		err = db.wal.Close()
	}
	if cerr := db.cache.Close(); err == nil {
		err = cerr
	}
	if db.ownsCacheDir {
		// Only a directory Open itself created; a user-supplied CacheDir
		// is left in place.
		if rerr := os.RemoveAll(db.cfg.CacheDir); err == nil {
			err = rerr
		}
	}
	if db.store != nil {
		if serr := db.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

func (db *DB) nextAnnotationTime() int64 { return db.annClock.Add(1) }

func (db *DB) allocateQID() int { return int(db.nextQID.Add(1)) + 100 }

// instanceFromStatement builds a summary.Instance from a parsed
// CREATE SUMMARY INSTANCE statement.
func instanceFromStatement(name, typeName string, labels []string, opts map[string]types.Value) (*summary.Instance, error) {
	tn, err := summary.ParseTypeName(typeName)
	if err != nil {
		return nil, err
	}
	getFloat := func(key string, def float64) float64 {
		if v, ok := opts[key]; ok && (v.Kind() == types.KindFloat || v.Kind() == types.KindInt) {
			return v.Float()
		}
		return def
	}
	getInt := func(key string, def int) int {
		if v, ok := opts[key]; ok && v.Kind() == types.KindInt {
			return int(v.Int())
		}
		return def
	}
	getBool := func(key string, def bool) bool {
		if v, ok := opts[key]; ok && v.Kind() == types.KindBool {
			return v.Bool()
		}
		return def
	}
	switch tn {
	case summary.TypeClassifier:
		if len(labels) < 2 {
			return nil, fmt.Errorf("engine: classifier instance %q needs LABELS ('a', 'b', ...)", name)
		}
		model, err := textmining.NewNaiveBayes(labels)
		if err != nil {
			return nil, err
		}
		return summary.NewClassifierInstance(name, model)
	case summary.TypeCluster:
		in, err := summary.NewClusterInstance(name, getFloat("threshold", summary.DefaultSimThreshold))
		if err != nil {
			return nil, err
		}
		in.CentroidTerms = getInt("centroidterms", summary.DefaultCentroidTerms)
		in.PreviewLen = getInt("previewlen", summary.DefaultPreviewLen)
		in.MergeBySimilarity = getBool("mergebysim", false)
		return in, nil
	case summary.TypeSnippet:
		return summary.NewSnippetInstance(name, getInt("sentences", summary.DefaultSnippetSentences))
	}
	return nil, fmt.Errorf("engine: unsupported summary type %q", typeName)
}
