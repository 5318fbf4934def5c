package server

import (
	"context"
	"sync/atomic"
	"time"

	"insightnotes/internal/metrics"
)

// Structured response codes. A response carrying a code is machine-readable:
// CodeOverloaded marks a retryable shed (honor RetryAfterMS, see
// Client.ExecRetry); CodeFrameTooLarge marks a request frame over the
// server's -max-frame-bytes cap (not retryable as sent); CodeStale marks
// a read shed by a replica whose lag exceeds its -max-staleness bound
// (retryable here after RetryAfterMS, or immediately against another
// endpoint — RoutedClient fails over); CodeReadOnly marks a mutation sent
// to a replica (never retryable here; route it to the primary);
// CodeCorrupt marks a statement that touched a page detected corrupt with
// no surviving clean frame — the page id is in the error text; the data
// is quarantined, not served (retry only after the node restarts, which
// rebuilds its page file from the checkpoint and WAL).
const (
	CodeOverloaded    = "OVERLOADED"
	CodeFrameTooLarge = "FRAME_TOO_LARGE"
	CodeStale         = "STALE"
	CodeReadOnly      = "READ_ONLY"
	CodeCorrupt       = "CORRUPT"
)

// AdmissionConfig tunes the server's statement-concurrency limiter.
// The zero value disables admission control entirely.
type AdmissionConfig struct {
	// MaxStatements bounds statements executing concurrently (0 disables
	// admission control; every request runs immediately).
	MaxStatements int
	// QueueDepth bounds how many statements may wait for a slot (default
	// 64). Arrivals beyond it are rejected immediately with a structured
	// retryable error rather than queued into unbounded memory.
	QueueDepth int
	// QueueTimeout bounds how long a statement waits queued before it is
	// shed (default 1s). A statement whose own deadline expires while
	// queued is shed at that moment instead.
	QueueTimeout time.Duration
}

// admission is the runtime limiter: a slot semaphore plus a bounded,
// deadline-aware wait queue. Statements that cannot get a slot in time
// are shed with a structured retryable error — the server degrades by
// answering "try later" quickly instead of stacking work it cannot do.
type admission struct {
	slots   chan struct{}
	waiters atomic.Int64
	depth   int64
	timeout time.Duration

	// nil handles (metrics disabled) are no-ops.
	queued      *metrics.Counter
	shed        *metrics.Counter
	rejected    *metrics.Counter
	waitSeconds *metrics.Histogram
}

// newAdmission builds the limiter, or nil when cfg disables it.
func newAdmission(cfg AdmissionConfig, reg *metrics.Registry) *admission {
	if cfg.MaxStatements <= 0 {
		return nil
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	timeout := cfg.QueueTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	a := &admission{
		slots:   make(chan struct{}, cfg.MaxStatements),
		depth:   int64(depth),
		timeout: timeout,
	}
	if reg != nil {
		a.queued = reg.Counter(metrics.NameAdmissionQueuedTotal,
			"Statements that waited in the admission queue for an execution slot.")
		a.shed = reg.Counter(metrics.NameAdmissionShedTotal,
			"Statements shed from the admission queue (queue timeout or statement deadline).")
		a.rejected = reg.Counter(metrics.NameAdmissionRejectedTotal,
			"Statements rejected outright because the admission queue was full.")
		a.waitSeconds = reg.Histogram(metrics.NameAdmissionWaitSeconds,
			"Admission-queue wait of admitted statements, in seconds.", metrics.DefLatencyBuckets)
	}
	return a
}

// shedInfo describes one load-shedding decision for the structured
// response: why, and when the client should try again.
type shedInfo struct {
	reason     string
	retryAfter time.Duration
}

// acquire obtains an execution slot, waiting in the bounded queue when the
// server is saturated. It returns a release func on success, or the shed
// decision when the statement must be turned away: queue full (immediate),
// queued past QueueTimeout, or the statement's own deadline expiring while
// queued. Shed statements never entered the engine.
func (a *admission) acquire(ctx context.Context) (func(), *shedInfo) {
	select {
	case a.slots <- struct{}{}:
		return a.release, nil
	default:
	}
	// Saturated: join the bounded wait queue.
	if a.waiters.Add(1) > a.depth {
		a.waiters.Add(-1)
		a.rejected.Inc()
		return nil, &shedInfo{reason: "admission queue full", retryAfter: a.retryAfter()}
	}
	defer a.waiters.Add(-1)
	a.queued.Inc()
	start := time.Now()
	timer := time.NewTimer(a.timeout)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.waitSeconds.Observe(time.Since(start).Seconds())
		return a.release, nil
	case <-timer.C:
		a.shed.Inc()
		return nil, &shedInfo{reason: "queued past the admission timeout", retryAfter: a.retryAfter()}
	case <-ctx.Done():
		a.shed.Inc()
		return nil, &shedInfo{reason: "statement deadline expired while queued", retryAfter: a.retryAfter()}
	}
}

func (a *admission) release() { <-a.slots }

// retryAfter is the hint sent with a shed: scale one queue timeout by how
// crowded the queue is, so clients back off harder the deeper the overload
// (their jittered backoff desynchronizes the retries).
func (a *admission) retryAfter() time.Duration {
	w := a.waiters.Load()
	if w < 1 {
		w = 1
	}
	d := a.timeout * time.Duration(w) / time.Duration(a.depth)
	if min := 50 * time.Millisecond; d < min {
		d = min
	}
	if d > a.timeout {
		d = a.timeout
	}
	return d
}

// shedResponse renders one shed decision as the structured wire error.
func shedResponse(s *shedInfo) Response {
	return Response{
		Error:        "server overloaded: " + s.reason,
		Code:         CodeOverloaded,
		RetryAfterMS: s.retryAfter.Milliseconds(),
	}
}
