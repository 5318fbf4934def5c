package trace

// Every lifecycle span name the engine opens, declared once. The taxonomy
// is <layer>.<step> (dots separate levels); the internal/lint span-name
// test rejects inline span-name literals at StartSpan/Child/AddChild call
// sites outside this package and checks the names declared here against
// the scheme, so the span vocabulary stays reviewable in one file.
const (
	// SpanStatement is the root span of every traced statement: it covers
	// the statement from trace start (at the server, before admission) to
	// completion, so queue wait, parse, plan, exec, and WAL commit are all
	// inside it.
	SpanStatement = "stmt"
	// SpanQueueWait covers the admission-queue wait for an execution slot
	// (opened by the server front end; absent without admission control).
	SpanQueueWait = "server.queue_wait"
	// SpanParse covers statement text parsing.
	SpanParse = "stmt.parse"
	// SpanPlan covers plan construction, including access-path selection;
	// the scan-vs-index decision and its cost estimates are attributes.
	SpanPlan = "stmt.plan"
	// SpanExec covers plan execution (SELECT) or the locked mutation section
	// (writes). Executor operator spans nest under it.
	SpanExec = "stmt.exec"
	// SpanWALAppend covers staging the statement's redo record into the WAL
	// (under the exclusive statement lock).
	SpanWALAppend = "wal.append"
	// SpanWALCommit covers the group-commit fsync wait after the statement
	// lock is released — the durability tail of every mutating statement.
	SpanWALCommit = "wal.commit"
	// SpanZoomExpand covers a zoom-in expansion: cached-result lookup (the
	// cache hit/miss is an attribute), refinement, and raw-annotation
	// retrieval.
	SpanZoomExpand = "zoom.expand"
	// SpanReplApply covers one replicated-record batch applied on a
	// replica: redo through the recovery path plus the local WAL stage
	// and commit fsync. Batch bounds and size are attributes.
	SpanReplApply = "repl.apply"
	// SpanReplResync covers installing a full snapshot shipped by the
	// primary after the replica fell behind a rotated WAL.
	SpanReplResync = "repl.resync"
	// SpanScrubSweep covers one scrubber pass over the page set (background
	// sweep or a synchronous CHECK TABLE); pages scanned and faults found
	// are attributes.
	SpanScrubSweep = "scrub.sweep"
	// SpanScrubRepair covers one page repair attempt; the source used
	// (flush, rebuild, replica) or the refusal is an attribute.
	SpanScrubRepair = "scrub.repair"
)

// OpSpanPrefix prefixes the synthesized per-operator spans of an executed
// plan; the remainder is the operator's stable metric label (op.scan,
// op.index_scan, op.hash_join, ...).
const OpSpanPrefix = "op."

// OpSpan returns the span name of one executor operator.
func OpSpan(operator string) string { return OpSpanPrefix + operator }
