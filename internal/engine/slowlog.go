package engine

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"
)

// OpStat is the per-operator runtime row attached to results and slow-query
// entries: the operator's metric label plus its lifetime counters.
type OpStat struct {
	Op         string `json:"op"`
	Rows       int64  `json:"rows"`
	Batches    int64  `json:"batches,omitempty"`
	Merges     int64  `json:"merges,omitempty"`
	Curates    int64  `json:"curates,omitempty"`
	WallMicros int64  `json:"wall_us,omitempty"`
}

// SlowQueryEntry is one structured slow-query record: everything needed to
// understand an outlier statement after the fact without re-running it.
type SlowQueryEntry struct {
	// TSMicros is the entry's wall-clock timestamp (µs since the epoch).
	TSMicros int64 `json:"ts_us"`
	// Statement is the original statement text.
	Statement string `json:"stmt"`
	// Kind is the statement-kind metric label (select, insert, zoomin, …).
	Kind string `json:"kind"`
	// WallMicros is the statement's elapsed wall time in microseconds.
	WallMicros int64 `json:"wall_us"`
	// QueueWaitMicros is the admission-queue wait before execution began
	// (0 when the statement never queued — embedded use, or instant admit).
	QueueWaitMicros int64 `json:"queue_wait_us,omitempty"`
	// TraceID cross-links the statement's lifecycle trace (empty when
	// tracing is disabled); slow statements are always retained, so a slow
	// entry's trace is fetchable via SHOW TRACE or /traces until evicted.
	TraceID string `json:"trace_id,omitempty"`
	// Rows is the number of result rows returned (0 on error).
	Rows int `json:"rows"`
	// OpRows, Merges, and Curates are the statement-wide pipeline totals.
	OpRows  int64 `json:"op_rows"`
	Merges  int64 `json:"merges"`
	Curates int64 `json:"curates"`
	// Error is the statement's error text, empty on success.
	Error string `json:"error,omitempty"`
	// Cancelled records why the statement was aborted, when it was:
	// "cancel" for context cancellation, "deadline" for an expired
	// deadline, empty otherwise.
	Cancelled string `json:"cancelled,omitempty"`
	// Ops holds the per-operator breakdown of a SELECT's plan.
	Ops []OpStat `json:"ops,omitempty"`
}

// SlowQuerySink receives slow-query entries. Implementations must be safe
// for concurrent use; EmitSlowQuery is called synchronously on the
// statement's goroutine, so sinks should be fast or buffer internally.
type SlowQuerySink interface {
	EmitSlowQuery(SlowQueryEntry)
}

// jsonSlowQueryLog writes one JSON object per line, the conventional
// machine-readable slow-query log format.
type jsonSlowQueryLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONSlowQueryLog returns a sink writing newline-delimited JSON entries
// to w. Writes are serialized; encoding errors are dropped (an observability
// channel must never fail a statement).
func NewJSONSlowQueryLog(w io.Writer) SlowQuerySink {
	return &jsonSlowQueryLog{enc: json.NewEncoder(w)}
}

func (l *jsonSlowQueryLog) EmitSlowQuery(e SlowQueryEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.enc.Encode(e)
}

// cancellationCause classifies an execution error as a cancellation kind
// for metrics and the slow-query log.
func cancellationCause(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return "cancel"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return ""
	}
}

// slowQueryEntry assembles the structured record for one finished statement.
func slowQueryEntry(kind, sqlText string, wall time.Duration, res *Result, err error, traceID string, queueWait time.Duration) SlowQueryEntry {
	e := SlowQueryEntry{
		TSMicros:        time.Now().UnixMicro(),
		Statement:       sqlText,
		Kind:            kind,
		WallMicros:      wall.Microseconds(),
		QueueWaitMicros: queueWait.Microseconds(),
		TraceID:         traceID,
		Cancelled:       cancellationCause(err),
	}
	if err != nil {
		e.Error = err.Error()
	}
	if res != nil {
		e.Rows = len(res.Rows)
		e.Ops = res.Ops
		if res.Stats != nil {
			e.OpRows = res.Stats.OpRows
			e.Merges = res.Stats.Merges
			e.Curates = res.Stats.Curates
		}
	}
	return e
}
