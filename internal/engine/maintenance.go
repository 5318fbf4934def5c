package engine

import (
	"sync"
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
// at ingest time, and the worker shares the summarize-once digest cache
// with the synchronous path, so catch-up converges to exactly the state
// synchronous maintenance would have produced. The state machine per
// summary is fresh → stale (tasks queued) → catching-up (worker draining)
// → fresh (queue empty).
//
// Durability does not depend on the queue: snapshots persist raw
// annotations only and recovery replays maintenance synchronously, so a
// crash with a non-empty queue recovers to the fully-caught-up state.

const (
	// defaultMaintQueueDepth bounds the deferred-maintenance queue when
	// Config.MaintenanceQueueDepth is zero. A full queue blocks ingestion
	// (backpressure) rather than growing without bound.
	defaultMaintQueueDepth = 1024
	// maintEWMAAlpha weights the latest synchronous maintenance latency in
	// the moving average that drives automatic degradation.
	maintEWMAAlpha = 0.2
)

// maintTarget is one resolved attachment scope of a deferred task: the
// rows and columns of one table, plus the summary instances linked to the
// table when the annotation committed. Instances are captured at enqueue
// time so later LINK/UNLINK changes do not rewrite history: catch-up
// applies exactly what synchronous maintenance would have.
type maintTarget struct {
	table     string
	rows      []types.RowID
	cols      annotation.ColSet
	instances []*summary.Instance
}

// maintTask is one deferred unit of summary maintenance: one ingested
// annotation (id and timestamp already assigned) and its resolved targets.
type maintTask struct {
	ann     annotation.Annotation
	targets []maintTarget
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
	for _, t := range tasks {
		db.applyMaintenanceTask(t)
	}
	db.maint.observeSync(time.Since(start) / time.Duration(len(tasks)))
}

// applyMaintenanceTask updates every captured instance's summary objects
// for one annotation — the single maintenance routine shared by the
// synchronous path and the catch-up worker, so both produce identical
// envelopes (digest cache included). db.mu serializes summarization and
// the digest cache; each envelope write additionally takes its stripe
// lock, so concurrent scans block only on the one stripe being updated.
func (db *DB) applyMaintenanceTask(t maintTask) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, tg := range t.targets {
		for _, in := range tg.instances {
			if db.cfg.DisableSummarizeOnce || !in.Props.SummarizeOnce() {
				// Without the invariant guarantee (or under the E5
				// ablation) the annotation is summarized per target tuple.
				for _, row := range tg.rows {
					d := in.Summarize(t.ann)
					db.envs.update(tg.table, row, func(env *summary.Envelope) {
						env.Add(in, d, tg.cols)
					})
				}
				continue
			}
			d := db.digestFor(in, t.ann)
			for _, row := range tg.rows {
				db.envs.update(tg.table, row, func(env *summary.Envelope) {
					env.Add(in, d, tg.cols)
				})
			}
		}
	}
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
	// summaries are rebuilt from raw annotations at recovery anyway.
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
			// rebuilds summaries synchronously from the raw annotations.
			m.mu.Lock()
			m.queue = append([]maintTask{t}, m.queue...)
			m.applying = false
			m.crashed = true
			m.cond.Broadcast()
			m.mu.Unlock()
			return
		}
		m.db.applyMaintenanceTask(t)

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
