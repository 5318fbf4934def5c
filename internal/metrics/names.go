package metrics

// Every metric name the engine registers, declared once. The taxonomy is
// insightnotes_<layer>_<name>{label}; counters end in _total. The
// internal/lint test rejects any insightnotes_* string literal in
// non-test code that is not declared in this file, so renames happen here
// (and show up in review) or not at all.
const (
	// engine layer — statement execution.
	NameEngineStatementsTotal      = "insightnotes_engine_statements_total"       // counter{kind}
	NameEngineStatementErrorsTotal = "insightnotes_engine_statement_errors_total" // counter{kind}
	NameEngineStatementSeconds     = "insightnotes_engine_statement_seconds"      // histogram{kind}
	NameEngineSlowQueriesTotal     = "insightnotes_engine_slow_queries_total"     // counter
	NameEngineResultRowsTotal      = "insightnotes_engine_result_rows_total"      // counter

	// engine layer — metadata store sizes (gauges).
	NameEngineAnnotations     = "insightnotes_engine_annotations"      // gauge
	NameEngineAnnotationBytes = "insightnotes_engine_annotation_bytes" // gauge
	NameEngineEnvelopes       = "insightnotes_engine_envelopes"        // gauge
	NameEngineSummaryBytes    = "insightnotes_engine_summary_bytes"    // gauge
	NameEngineDigestEntries   = "insightnotes_engine_digest_entries"   // gauge

	// summary layer — maintenance.
	NameSummarySummarizeTotal    = "insightnotes_summary_summarize_total"     // counter (per-instance Summarize calls)
	NameSummaryDigestHitsTotal   = "insightnotes_summary_digest_hits_total"   // counter (summarize-once reuse)
	NameSummaryDigestMissesTotal = "insightnotes_summary_digest_misses_total" // counter
	NameSummaryRetrainTotal      = "insightnotes_summary_retrain_total"       // counter (classifier samples trained)

	// exec layer — per-operator-type pipeline work.
	NameExecOpSeconds      = "insightnotes_exec_op_seconds"       // histogram{op} (sampled timing)
	NameExecOpRowsTotal    = "insightnotes_exec_op_rows_total"    // counter{op}
	NameExecOpBatchesTotal = "insightnotes_exec_op_batches_total" // counter{op}
	NameExecOpMergesTotal  = "insightnotes_exec_op_merges_total"  // counter{op}
	NameExecOpCuratesTotal = "insightnotes_exec_op_curates_total" // counter{op}

	// exec layer — morsel-driven base-table scans.
	NameExecScanMorselsTotal = "insightnotes_exec_scan_morsels_total" // counter (morsels processed)
	NameExecScanWorkersTotal = "insightnotes_exec_scan_workers_total" // counter (scan workers: 1 per inline scan, the pool size otherwise)

	// bufferpool layer — frame cache over the page store. These counters
	// predate the _total convention in ISSUE 6's acceptance wording and are
	// pinned to these exact names.
	NameBufferpoolHits      = "insightnotes_bufferpool_hits"      // counter (pins served from a resident frame)
	NameBufferpoolMisses    = "insightnotes_bufferpool_misses"    // counter (pins that fetched the page from the store)
	NameBufferpoolEvictions = "insightnotes_bufferpool_evictions" // counter (unpinned frames evicted to make room)

	// plan layer — planning decisions.
	NamePlanPlansTotal       = "insightnotes_plan_plans_total"        // counter
	NamePlanAccessPathsTotal = "insightnotes_plan_access_paths_total" // counter{path}

	// plancache layer — the engine plan cache behind prepared statements
	// and repeated ad-hoc SELECTs. Like the bufferpool counters, these
	// names come verbatim from ISSUE 10's acceptance wording and are
	// pinned without the _total suffix.
	NamePlancacheHits      = "insightnotes_plancache_hits"      // counter (executions served from a cached template + path memo)
	NamePlancacheMisses    = "insightnotes_plancache_misses"    // counter (cacheable statements that had to parse and cost)
	NamePlancacheEvictions = "insightnotes_plancache_evictions" // counter (entries evicted past the LRU capacity)
	NamePlancacheEntries   = "insightnotes_plancache_entries"   // gauge (templates currently cached)

	// zoomin layer — RCO materialization cache and zoom-in execution.
	NameZoominCacheHitsTotal      = "insightnotes_zoomin_cache_hits_total"      // counter
	NameZoominCacheMissesTotal    = "insightnotes_zoomin_cache_misses_total"    // counter
	NameZoominCacheEvictionsTotal = "insightnotes_zoomin_cache_evictions_total" // counter
	NameZoominCachePutsTotal      = "insightnotes_zoomin_cache_puts_total"      // counter
	NameZoominCacheRejectedTotal  = "insightnotes_zoomin_cache_rejected_total"  // counter (results larger than the budget)
	NameZoominCacheBytes          = "insightnotes_zoomin_cache_bytes"           // gauge
	NameZoominCacheEntries        = "insightnotes_zoomin_cache_entries"         // gauge
	NameZoominRequestsTotal       = "insightnotes_zoomin_requests_total"        // counter
	NameZoominCancelledTotal      = "insightnotes_zoomin_cancelled_total"       // counter

	// server layer — network front end.
	NameServerConnectionsTotal   = "insightnotes_server_connections_total"    // counter
	NameServerActiveConnections  = "insightnotes_server_active_connections"   // gauge
	NameServerRequestsTotal      = "insightnotes_server_requests_total"       // counter
	NameServerRequestErrorsTotal = "insightnotes_server_request_errors_total" // counter
	NameServerPanicsTotal        = "insightnotes_server_panics_total"         // counter (statements that panicked and were isolated)

	// admission layer — statement concurrency limiting and load shedding.
	NameAdmissionQueuedTotal    = "insightnotes_admission_queued_total"     // counter (statements that waited for a slot)
	NameAdmissionShedTotal      = "insightnotes_admission_shed_total"       // counter (statements shed from the wait queue: timeout or deadline)
	NameAdmissionRejectedTotal  = "insightnotes_admission_rejected_total"   // counter (statements rejected outright: queue full)
	NameAdmissionWaitSeconds    = "insightnotes_admission_wait_seconds"     // histogram (queue wait of admitted statements)
	NameServerConnsRefusedTotal = "insightnotes_server_conns_refused_total" // counter (connections refused at the -max-conns cap)

	// wal layer — durability: append log, checkpointing, and recovery.
	NameWALAppendsTotal        = "insightnotes_wal_appends_total"         // counter (records committed)
	NameWALAppendErrorsTotal   = "insightnotes_wal_append_errors_total"   // counter
	NameWALBytesTotal          = "insightnotes_wal_bytes_total"           // counter (framed bytes committed)
	NameWALFsyncSeconds        = "insightnotes_wal_fsync_seconds"         // histogram (commit fsync latency)
	NameWALSizeBytes           = "insightnotes_wal_size_bytes"            // gauge (current log size)
	NameWALLastLSN             = "insightnotes_wal_last_lsn"              // gauge
	NameWALCheckpointsTotal    = "insightnotes_wal_checkpoints_total"     // counter
	NameWALCheckpointSeconds   = "insightnotes_wal_checkpoint_seconds"    // histogram
	NameWALRecoveryReplayed    = "insightnotes_wal_recovery_replayed"     // gauge (records replayed at last startup)
	NameWALRecoverySkipped     = "insightnotes_wal_recovery_skipped"      // gauge (stale records skipped by LSN at last startup)
	NameWALRecoveryTornTotal   = "insightnotes_wal_recovery_torn_total"   // counter (torn tails truncated at startup: 0 or 1 per process)
	NameWALSnapshotLoadedTotal = "insightnotes_wal_snapshot_loaded_total" // counter (startups that recovered from a snapshot)

	// engine layer — degraded summary maintenance (overload protection).
	NameMaintenancePendingTasks  = "insightnotes_maintenance_pending_tasks"  // gauge (deferred tasks queued for catch-up)
	NameMaintenanceDeferredTotal = "insightnotes_maintenance_deferred_total" // counter (tasks deferred to the background worker)
	NameMaintenanceAppliedTotal  = "insightnotes_maintenance_applied_total"  // counter (deferred tasks applied by the worker)
	NameMaintenanceDegraded      = "insightnotes_maintenance_degraded"       // gauge (1 while deferring, 0 when fresh)
	NameSummaryStaleUpdatesTotal = "insightnotes_summary_stale_updates"      // gauge{instance} (pending updates per summary instance)

	// wal layer — group commit (batched commit fsyncs).
	NameWALGroupCommitBatchesTotal = "insightnotes_wal_group_commit_batches_total" // counter (commit fsyncs covering ≥1 record)
	NameWALGroupCommitRecordsTotal = "insightnotes_wal_group_commit_records_total" // counter (records that shared a commit fsync)

	// trace layer — statement lifecycle tracing (collection and retention).
	NameTraceStartedTotal    = "insightnotes_trace_started_total"     // counter (traces begun)
	NameTraceRetainedTotal   = "insightnotes_trace_retained_total"    // counter (completed traces admitted to the ring)
	NameTraceSampledOutTotal = "insightnotes_trace_sampled_out_total" // counter (ordinary traces dropped by the tail sampler)
	NameTraceEvictedTotal    = "insightnotes_trace_evicted_total"     // counter (retained traces evicted by the ring bound)
	NameTraceResident        = "insightnotes_trace_resident"          // gauge (traces currently retained)

	// repl layer — WAL-shipping replication. Sender side (primary):
	// stream/snapshot volume, per-stream failures, and the fleet-lag
	// floor. Receiver side (replica): apply volume, reconnect/resync
	// churn, and the staleness the replica serves reads at. Shed counters
	// live on the replica's server front end.
	NameReplConnectedReplicas   = "insightnotes_repl_connected_replicas"    // gauge (streams currently attached to the sender)
	NameReplRecordsSentTotal    = "insightnotes_repl_records_sent_total"    // counter (records streamed to replicas, all streams)
	NameReplSnapshotsSentTotal  = "insightnotes_repl_snapshots_sent_total"  // counter (full-snapshot resyncs served)
	NameReplSendErrorsTotal     = "insightnotes_repl_send_errors_total"     // counter (streams dropped on write/handshake failure)
	NameReplAckedLSNMin         = "insightnotes_repl_acked_lsn_min"         // gauge (lowest acknowledged LSN across replicas; 0 with none attached)
	NameReplRecordsAppliedTotal = "insightnotes_repl_records_applied_total" // counter (records applied by this replica)
	NameReplApplyErrorsTotal    = "insightnotes_repl_apply_errors_total"    // counter (apply batches that failed)
	NameReplResyncsTotal        = "insightnotes_repl_resyncs_total"         // counter (full snapshots installed by this replica)
	NameReplReconnectsTotal     = "insightnotes_repl_reconnects_total"      // counter (stream reconnect attempts after the first)
	NameReplLagRecords          = "insightnotes_repl_lag_records"           // gauge (primary tip LSN minus applied LSN)
	NameReplLagSeconds          = "insightnotes_repl_lag_seconds"           // gauge (age of the replica's last caught-up contact)
	NameReplStaleShedsTotal     = "insightnotes_repl_stale_sheds_total"     // counter (reads shed with STALE past -max-staleness)
	NameReplReadOnlyTotal       = "insightnotes_repl_read_only_total"       // counter (mutations rejected by a read-only replica)

	// integrity layer — checksums, the online scrubber, and repair. Like the
	// bufferpool counters, these names come verbatim from ISSUE 9's
	// acceptance wording and are pinned without the _total suffix.
	NameIntegrityPagesScanned     = "insightnotes_integrity_pages_scanned"     // counter (pages swept by the scrubber or CHECK TABLE)
	NameIntegrityChecksumFailures = "insightnotes_integrity_checksum_failures" // counter (pages whose stored CRC or structure failed verification)
	NameIntegrityRepairs          = "insightnotes_integrity_repairs"           // counter (pages repaired: reflushed, rebuilt locally, or refetched)
	NameIntegrityQuarantined      = "insightnotes_integrity_quarantined"       // gauge (pages currently quarantined, awaiting a repair source)

	// process layer — build identity and age.
	NameBuildInfo            = "insightnotes_build_info"             // gauge{version} (always 1)
	NameProcessUptimeSeconds = "insightnotes_process_uptime_seconds" // gauge
)
