package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/metrics"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// Degraded summary maintenance — the engine half of overload protection.
//
// Under normal load an ingested annotation updates every linked summary
// instance synchronously, inside the statement. Under overload (an explicit
// SetDegraded call, or the EWMA of synchronous maintenance latency crossing
// Config.MaintenanceLatencyThreshold) the engine keeps the cheap durable
// part of ingestion — raw annotation store plus WAL record — synchronous,
// and defers summary maintenance to a bounded FIFO queue drained by a
// single background catch-up worker. Affected summaries are stale until
// the worker catches up; readers see the stale (but internally consistent)
// envelopes instead of queueing behind maintenance.
//
// Deferred tasks carry fully resolved targets and the instance set captured
// at ingest time, and the worker applies them through the same routine as
// the synchronous path (applyTasks), so catch-up converges to exactly the
// state synchronous maintenance would have produced. The state machine per
// summary is fresh → stale (tasks queued) → catching-up (worker draining)
// → fresh (queue empty).
//
// Durability does not depend on the queue: a checkpoint drains it before
// it stores the envelopes, and recovery maintains the logged annotations
// synchronously, so a crash with a non-empty queue recovers to the
// fully-caught-up state.

const (
	// defaultMaintQueueDepth bounds the deferred-maintenance queue when
	// Config.MaintenanceQueueDepth is zero. A full queue blocks ingestion
	// (backpressure) rather than growing without bound.
	defaultMaintQueueDepth = 1024
	// maintEWMAAlpha weights the latest synchronous maintenance latency in
	// the moving average that drives automatic degradation.
	maintEWMAAlpha = 0.2
)

// maintTarget is one resolved attachment scope of a task: the rows and
// columns of one table, plus the summary instances linked to the table
// when the annotation committed. Instances are captured at ingest time so
// later LINK/UNLINK changes do not rewrite history: catch-up applies
// exactly what synchronous maintenance would have.
type maintTarget struct {
	table     string
	rows      []types.RowID
	cols      annotation.ColSet
	instances []*summary.Instance
}

// maintTask is one unit of summary maintenance: one annotation (id and
// timestamp already assigned) and its resolved targets.
type maintTask struct {
	ann     annotation.Annotation
	targets []maintTarget
	// full summarizes once per target row even where summarize-once
	// holds: RebuildSummaries' full-recomputation baseline.
	full bool
}

// maintChunk is the number of digests, or of envelope rows, a maintenance
// worker claims at a time, and the smallest share of a batch worth a
// goroutine of its own.
const maintChunk = 64

// applyTasks is the one summary-maintenance routine: ingest, the catch-up
// worker, LINK backfill, RebuildSummaries and the redo of logged
// annotations (WAL replay, a replica) all apply their annotations through
// it, so each produces the envelopes the others would. It works on a
// batch in two phases.
//
// Digests: one Summarize per (annotation, instance) where summarize-once
// holds (§2.3) — the digest then serves every target of the annotation —
// and one per (annotation, instance, row) otherwise.
//
// Envelopes: the digests are grouped by (table, row), in task order within
// each row — cluster grouping depends on insertion order — and each touched
// row gets one envs.update, one stripe-lock hold, per batch, however many
// of its annotations the batch carries.
//
// Digests are independent of each other, and so are rows, so each phase
// is spread over up to GOMAXPROCS workers, one per maintChunk of its work
// (forChunks); a small batch — every single ADD ANNOTATION — runs inline.
//
// db.mu serializes maintenance; each envelope write additionally takes its
// stripe lock, so concurrent scans block only on the one stripe being
// updated.
func (db *DB) applyTasks(tasks []maintTask) {
	db.mu.Lock()
	defer db.mu.Unlock()

	// job i computes out[i].
	type job struct {
		in  *summary.Instance
		ann *annotation.Annotation
	}
	type add struct {
		in   *summary.Instance
		cols annotation.ColSet
		d    int // index into out
	}
	type rowKey struct {
		table string
		row   types.RowID
	}
	n := 0 // digests in the common case: one per target and instance
	for _, t := range tasks {
		for _, tg := range t.targets {
			n += len(tg.instances)
		}
	}
	var (
		jobs   = make([]job, 0, n)
		out    = make([]summary.Digest, 0, n)
		byRow  = make(map[rowKey]int)
		keys   []rowKey
		adds   [][]add
		hits   int64
		misses int64
	)
	push := func(in *summary.Instance, ann *annotation.Annotation) int {
		jobs = append(jobs, job{in: in, ann: ann})
		out = append(out, summary.Digest{})
		return len(out) - 1
	}
	addTo := func(table string, row types.RowID, a add) {
		k := rowKey{table, row}
		i, ok := byRow[k]
		if !ok {
			i = len(keys)
			byRow[k] = i
			keys = append(keys, k)
			adds = append(adds, nil)
		}
		adds[i] = append(adds[i], a)
	}
	once := make(map[*summary.Instance]int) // digest of the current task per instance
	for ti := range tasks {
		t := &tasks[ti]
		clear(once)
		for _, tg := range t.targets {
			for _, in := range tg.instances {
				if t.full || db.cfg.DisableSummarizeOnce || !in.Props.SummarizeOnce() {
					// Without the invariant guarantee (or under the E5
					// ablation, or in a full rebuild) the annotation is
					// summarized per target tuple.
					for _, row := range tg.rows {
						addTo(tg.table, row, add{in, tg.cols, push(in, &t.ann)})
					}
					continue
				}
				d, ok := once[in]
				if ok {
					hits++
				} else {
					d = push(in, &t.ann)
					once[in] = d
					misses++
				}
				for _, row := range tg.rows {
					addTo(tg.table, row, add{in, tg.cols, d})
				}
			}
		}
	}
	if m := db.metrics; m != nil {
		m.digestHits.Add(hits)
		m.digestMisses.Add(misses)
	}

	forChunks(len(jobs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = jobs[i].in.Summarize(*jobs[i].ann)
		}
	})
	forChunks(len(keys), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			db.envs.update(keys[i].table, keys[i].row, func(env *summary.Envelope) {
				for _, a := range adds[i] {
					env.Add(a.in, out[a.d], a.cols)
				}
			})
		}
	})
}

// forChunks calls fn over [0, n) in chunks of maintChunk, from up to
// GOMAXPROCS goroutines that claim chunks as they go — or inline when
// there is at most one chunk's work.
func forChunks(n int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+maintChunk-1)/maintChunk)
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(maintChunk)) - maintChunk
				if lo >= n {
					return
				}
				fn(lo, min(lo+maintChunk, n))
			}
		}()
	}
	wg.Wait()
}

// maintenance owns the degraded-mode state: the bounded task queue, the
// lazily started catch-up worker, the manual and latency-triggered
// degradation flags, and per-instance staleness accounting.
type maintenance struct {
	db *DB

	mu   sync.Mutex
	cond *sync.Cond

	queue    []maintTask
	applying bool // worker is mid-apply (its task is off the queue)
	started  bool // worker goroutine launched
	closed   bool
	crashed  bool // worker killed by failpoint; queue frozen

	manual bool    // SetDegraded(true)
	auto   bool    // latency-triggered
	ewma   float64 // EWMA of synchronous maintenance latency, seconds

	capacity  int
	threshold float64 // seconds; <= 0 disables auto-degradation

	// stale counts pending deferred updates per instance name; it feeds
	// the insightnotes_summary_stale_updates gauge vector.
	stale    map[string]int
	staleVec *metrics.GaugeVec

	deferredN int64
	appliedN  int64

	done chan struct{}
}

func newMaintenance(db *DB, depth int, threshold time.Duration) *maintenance {
	if depth <= 0 {
		depth = defaultMaintQueueDepth
	}
	m := &maintenance{
		db:        db,
		capacity:  depth,
		threshold: threshold.Seconds(),
		stale:     make(map[string]int),
		done:      make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// registerMetrics exposes the degradation state on the engine registry.
func (m *maintenance) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc(metrics.NameMaintenancePendingTasks,
		"Deferred summary-maintenance tasks awaiting catch-up.",
		func() float64 { return float64(m.pending()) })
	reg.GaugeFunc(metrics.NameMaintenanceDegraded,
		"1 while the engine defers summary maintenance, 0 when fresh.",
		func() float64 {
			if m.degraded() {
				return 1
			}
			return 0
		})
	reg.CounterFunc(metrics.NameMaintenanceDeferredTotal,
		"Summary-maintenance tasks deferred to the catch-up worker.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.deferredN)
		})
	reg.CounterFunc(metrics.NameMaintenanceAppliedTotal,
		"Deferred summary-maintenance tasks applied by the catch-up worker.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.appliedN)
		})
	m.staleVec = reg.GaugeVec(metrics.NameSummaryStaleUpdatesTotal,
		"Pending deferred updates per summary instance (0 = fresh).", "instance")
}

// maintain routes the summary maintenance of one ingest (one task per
// annotation, in ingest order): the whole batch is deferred to the catch-up
// queue when the engine is degraded or ordering requires it, and applied
// synchronously otherwise. The per-task latency, not the batch total, feeds
// the degradation EWMA, so a large healthy batch does not read as overload.
// Callers hold the exclusive statement lock.
func (db *DB) maintain(tasks []maintTask) {
	if len(tasks) == 0 || db.maint.deferTasks(tasks) {
		return
	}
	start := time.Now()
	db.applyTasks(tasks)
	db.maint.observeSync(time.Since(start) / time.Duration(len(tasks)))
}

// deferTasks queues one ingest's tasks when degraded mode (or the ordering
// invariant: once anything is queued or being applied, everything after it
// must queue too) demands it, and reports whether it did. A full queue
// blocks the caller — backpressure — until the worker frees a slot; the
// worker takes only db.mu, never the statement lock, so the wait always
// makes progress. The tasks are then appended together: the queue may
// transiently exceed capacity by len(tasks)-1, a bounded overshoot accepted
// so one ingest is never split across the degradation boundary (its tasks
// either all defer or all apply synchronously, keeping ingest order).
func (m *maintenance) deferTasks(tasks []maintTask) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || !m.degradedLocked() {
		return false
	}
	// A crashed worker (failpoint kill mid-catch-up) never drains the
	// queue; skip backpressure so the dying process doesn't hang — the
	// logged annotations are maintained again at recovery anyway.
	for len(m.queue) >= m.capacity && !m.closed && !m.crashed {
		m.cond.Wait()
	}
	if m.closed {
		return false
	}
	m.queue = append(m.queue, tasks...)
	m.deferredN += int64(len(tasks))
	for _, t := range tasks {
		m.bumpStaleLocked(t, 1)
	}
	if !m.started && !m.crashed {
		m.started = true
		go m.worker()
	}
	m.cond.Broadcast()
	return true
}

// degradedLocked reports whether the next ingest would defer. Requires m.mu.
func (m *maintenance) degradedLocked() bool {
	return m.manual || m.auto || m.crashed || len(m.queue) > 0 || m.applying
}

// bumpStaleLocked adjusts the per-instance pending-update counts for one
// task by delta (±1) and mirrors them into the staleness gauge vector.
// Requires m.mu.
func (m *maintenance) bumpStaleLocked(t maintTask, delta int) {
	for _, tg := range t.targets {
		for _, in := range tg.instances {
			m.stale[in.Name] += delta
			m.staleVec.With(in.Name).Set(float64(m.stale[in.Name]))
		}
	}
}

// worker is the catch-up loop: it drains the queue FIFO (one goroutine,
// so deferred maintenance applies in ingest order) and exits when the
// engine closes with an empty queue — or immediately when the failpoint
// simulates a kill.
func (m *maintenance) worker() {
	defer close(m.done)
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return // closed and drained
		}
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.applying = true
		m.mu.Unlock()

		if err := failpoint.Eval(failpoint.MaintenanceApply); err != nil {
			// The process "died" mid-catch-up: freeze the queue (the task
			// goes back so pending counts stay honest) and stop. Recovery
			// maintains the logged annotations synchronously.
			m.mu.Lock()
			m.queue = append([]maintTask{t}, m.queue...)
			m.applying = false
			m.crashed = true
			m.cond.Broadcast()
			m.mu.Unlock()
			return
		}
		m.db.applyTasks([]maintTask{t})

		m.mu.Lock()
		m.applying = false
		m.appliedN++
		m.bumpStaleLocked(t, -1)
		if len(m.queue) == 0 {
			// Caught up: latency-triggered degradation ends here, and the
			// stale latency average with it. Manual degradation persists
			// until SetDegraded(false).
			m.auto = false
			m.ewma = 0
		}
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// drain blocks until every deferred task has been applied — the barrier in
// front of mutations that read or rewrite the summary store (deletes,
// drops, link changes, retraining, rebuilds). Callers hold the exclusive
// statement lock; the worker needs only db.mu and envelope stripe locks,
// never the statement lock, so progress is guaranteed.
// A crashed worker or a closed engine returns immediately: those tasks can
// never apply.
func (m *maintenance) drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for (len(m.queue) > 0 || m.applying) && !m.crashed && !m.closed {
		m.cond.Wait()
	}
}

// observeSync feeds one synchronous maintenance latency into the EWMA and
// flips the engine into degraded mode when it crosses the threshold.
func (m *maintenance) observeSync(d time.Duration) {
	if m.threshold <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := d.Seconds()
	if m.ewma == 0 {
		m.ewma = s
	} else {
		m.ewma = (1-maintEWMAAlpha)*m.ewma + maintEWMAAlpha*s
	}
	if m.ewma > m.threshold {
		m.auto = true
	}
}

// degraded reports whether the next annotation would defer.
func (m *maintenance) degraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degradedLocked()
}

// pending counts tasks not yet applied (queued plus in flight).
func (m *maintenance) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.queue)
	if m.applying {
		n++
	}
	return n
}

// setManual flips operator-forced degradation. Turning it off does not
// snap summaries fresh: the queue drains in order first (the ordering
// invariant in deferTasks), then new annotations apply synchronously again.
func (m *maintenance) setManual(on bool) {
	m.mu.Lock()
	m.manual = on
	m.cond.Broadcast()
	m.mu.Unlock()
}

// close stops the catch-up worker. The worker finishes the queue first
// (unless it crashed), so a clean Close leaves summaries fresh.
func (m *maintenance) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	started := m.started
	m.cond.Broadcast()
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

// MaintenanceStats is a point-in-time snapshot of the degraded-maintenance
// state, surfaced by stats_detail and tests.
type MaintenanceStats struct {
	// Pending is the number of deferred tasks not yet applied.
	Pending int
	// Deferred and Applied are lifetime task counts.
	Deferred int64
	Applied  int64
	// Degraded reports whether the next annotation would defer.
	Degraded bool
	// StaleByInstance maps instance name to its pending update count
	// (instances at 0 are included once they have ever been stale).
	StaleByInstance map[string]int
}

// MaintenanceStats snapshots the degraded-maintenance state.
func (db *DB) MaintenanceStats() MaintenanceStats {
	m := db.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MaintenanceStats{
		Pending:         len(m.queue),
		Deferred:        m.deferredN,
		Applied:         m.appliedN,
		Degraded:        m.degradedLocked(),
		StaleByInstance: make(map[string]int, len(m.stale)),
	}
	if m.applying {
		st.Pending++
	}
	for k, v := range m.stale {
		st.StaleByInstance[k] = v
	}
	return st
}

// SetDegraded forces (or releases) degraded summary maintenance: while
// set, annotation ingestion persists the raw annotation and WAL record
// synchronously but defers summary updates to the background catch-up
// worker. Exposed for operators (and the overload tests); the server also
// degrades automatically via Config.MaintenanceLatencyThreshold.
func (db *DB) SetDegraded(on bool) { db.maint.setManual(on) }

// WaitMaintenanceIdle blocks until no deferred maintenance is pending —
// the catch-up worker has drained the queue (or can never: crashed or
// closed). Primarily for tests and controlled drains.
func (db *DB) WaitMaintenanceIdle() { db.maint.drain() }
