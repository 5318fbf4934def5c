// Command insightnotesd runs an InsightNotes engine as standalone network
// middleware: clients connect over TCP and speak the newline-delimited
// JSON protocol of internal/server (one request object per line, one
// response per line).
//
// Usage:
//
//	insightnotesd [-addr :7090] [-data-dir dir] [-snapshot db.json] [-demo]
//	              [-stmt-timeout 30s] [-drain-timeout 10s] [-checkpoint-bytes 8388608]
//	              [-metrics-addr 127.0.0.1:7091] [-slow-query-ms 250] [-slow-query-log slow.jsonl]
//	              [-admit-max 0] [-admit-queue 64] [-admit-timeout 1s] [-max-conns 0]
//	              [-max-frame-bytes 16777216] [-idle-timeout 0] [-write-timeout 0]
//	              [-maint-queue 1024] [-maint-latency-ms 0]
//	              [-page-file pages.db] [-pool-frames 256]
//	              [-replication-addr :7092] [-replicate-from host:7092] [-max-staleness 0]
//	              [-scrub-interval 0] [-scrub-rate 256] [-repair-from host:7092]
//
// With -data-dir the engine runs crash-safe: every mutation is written to
// a fsynced write-ahead log before it is acknowledged, startup recovers
// the latest snapshot plus the WAL tail, and checkpoints (the CHECKPOINT
// statement, the -checkpoint-bytes size trigger, and shutdown) rewrite
// the snapshot and rotate the log.
//
// With -snapshot (durability off) the server loads the file at startup
// (if it exists) and writes it back on SIGINT/SIGTERM shutdown. On
// shutdown in-flight statements drain for at most -drain-timeout before
// being cancelled. With -metrics-addr an HTTP sidecar serves Prometheus
// metrics at /metrics and the pprof suite under /debug/pprof/. With
// -slow-query-ms statements at or above the threshold are logged as JSON
// lines to -slow-query-log (stderr by default).
//
// Overload protection: -admit-max bounds concurrently executing statements
// (excess requests wait in a bounded, deadline-aware queue of -admit-queue,
// shed after -admit-timeout with a structured retryable error carrying a
// retry-after hint); -max-conns caps client connections (refused ones get
// one structured answer); -max-frame-bytes caps a request frame;
// -idle-timeout and -write-timeout bound silent and slow-reading
// connections. -maint-latency-ms degrades summary maintenance automatically
// when the per-statement maintenance latency average crosses it: raw
// annotations stay synchronous and durable while summary updates queue
// (bounded by -maint-queue) for the background catch-up worker.
//
// Replication (requires -data-dir on both sides): -replication-addr makes
// this process a primary that ships its WAL to connected replicas;
// -replicate-from makes it a read replica of that primary — it follows
// the stream continuously, serves SELECT/ZOOMIN/SHOW with an explicit
// staleness bound in every response, rejects mutations with a structured
// READ_ONLY error, and sheds reads with a structured STALE error once its
// lag exceeds -max-staleness (0 serves regardless of lag). On shutdown
// the replication streams drain under the same -drain-timeout as client
// statements.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/replication"
	"insightnotes/internal/server"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7090", "listen address")
	dataDir := flag.String("data-dir", "", "durable data directory (snapshot + write-ahead log); empty runs in-memory")
	ckptBytes := flag.Int64("checkpoint-bytes", 0, "auto-checkpoint when the WAL reaches this size (0 = 8 MiB default, negative disables)")
	snapshot := flag.String("snapshot", "", "snapshot file to load at start and save at shutdown (ignored with -data-dir)")
	demo := flag.Bool("demo", false, "preload the annotated ornithological demo dataset")
	stmtTimeout := flag.Duration("stmt-timeout", 0, "per-statement execution deadline (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "shutdown bound on draining in-flight statements (0 waits without bound)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address serving /metrics and /debug/pprof (empty disables)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "slow-query threshold in milliseconds (0 disables the slow-query log)")
	slowQueryLog := flag.String("slow-query-log", "", "slow-query log file, JSON lines (default stderr)")
	admitMax := flag.Int("admit-max", 0, "max concurrently executing statements (0 disables admission control)")
	admitQueue := flag.Int("admit-queue", 0, "bounded admission wait queue depth (0 = 64 default)")
	admitTimeout := flag.Duration("admit-timeout", 0, "max time a statement waits queued before it is shed (0 = 1s default)")
	maxConns := flag.Int("max-conns", 0, "max concurrent client connections (0 = unlimited)")
	maxFrame := flag.Int("max-frame-bytes", 0, "max request frame size in bytes (0 = 16 MiB default)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle longer than this (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-response write deadline against slow readers (0 disables)")
	maintQueue := flag.Int("maint-queue", 0, "deferred summary-maintenance queue depth (0 = 1024 default)")
	maintLatencyMS := flag.Int("maint-latency-ms", 0, "auto-degrade summary maintenance when its latency average crosses this (0 disables)")
	execWorkers := flag.Int("exec-workers", 0, "scan worker pool size (0 = GOMAXPROCS, 1 = inline; a scan never uses more workers than it has morsels)")
	batchSize := flag.Int("batch-size", 0, "executor rows-per-batch granularity (0 = built-in default)")
	planCache := flag.Int("plan-cache", 0, "engine plan cache capacity in entries (0 = 256 default, negative disables)")
	pageFile := flag.String("page-file", "", "file-backed page store path (default <data-dir>/pages.db with -data-dir, in-memory otherwise)")
	poolFrames := flag.Int("pool-frames", 0, "buffer-pool capacity in 8 KiB frames (0 = 256 default)")
	traceSample := flag.Float64("trace-sample", 0, "probability a statement gets detailed span collection and ordinary traces are retained (0 = 0.05 default, negative keeps only slow/errored shells)")
	traceCapacity := flag.Int("trace-capacity", 0, "retained-trace ring capacity (0 = 512 default)")
	noTracing := flag.Bool("no-tracing", false, "disable statement lifecycle tracing entirely")
	replAddr := flag.String("replication-addr", "", "WAL-shipping listener for read replicas (primary role; requires -data-dir)")
	replFrom := flag.String("replicate-from", "", "primary's replication address to follow (read-replica role; requires -data-dir)")
	maxStaleness := flag.Duration("max-staleness", 0, "shed replica reads with a structured STALE error once lag exceeds this (0 serves regardless of lag)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background integrity scrub period (0 disables; CHECK TABLE still verifies on demand)")
	scrubRate := flag.Int("scrub-rate", 0, "background scrub budget in pages per second (0 = built-in default)")
	repairFrom := flag.String("repair-from", "", "replication address to fetch clean pages from when corruption is found (defaults to -replicate-from on replicas)")
	flag.Parse()

	if (*replAddr != "" || *replFrom != "") && *dataDir == "" {
		fatal(fmt.Errorf("-replication-addr and -replicate-from require -data-dir (replication ships the write-ahead log)"))
	}
	if *replAddr != "" && *replFrom != "" {
		fatal(fmt.Errorf("-replication-addr and -replicate-from are mutually exclusive (cascading replicas are not supported)"))
	}
	if *replFrom != "" && *demo {
		fatal(fmt.Errorf("-demo mutates the database and cannot run on a read replica"))
	}

	cfg := engine.Config{
		MaintenanceQueueDepth:       *maintQueue,
		MaintenanceLatencyThreshold: time.Duration(*maintLatencyMS) * time.Millisecond,
		ExecWorkers:                 *execWorkers,
		BatchSize:                   *batchSize,
		PlanCacheSize:               *planCache,
		PageFile:                    *pageFile,
		PoolFrames:                  *poolFrames,
		TraceSample:                 *traceSample,
		TraceCapacity:               *traceCapacity,
		DisableTracing:              *noTracing,
		ScrubInterval:               *scrubInterval,
		ScrubRate:                   *scrubRate,
	}
	if *slowQueryMS > 0 {
		cfg.SlowQueryThreshold = time.Duration(*slowQueryMS) * time.Millisecond
		sinkW := os.Stderr
		if *slowQueryLog != "" {
			f, err := os.OpenFile(*slowQueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(fmt.Errorf("opening slow-query log: %w", err))
			}
			defer f.Close()
			sinkW = f
		}
		cfg.SlowQueryLog = engine.NewJSONSlowQueryLog(sinkW)
	}

	var db *engine.DB
	var err error
	switch {
	case *dataDir != "":
		var info engine.RecoveryInfo
		db, info, err = engine.OpenDurable(cfg, engine.DurabilityOptions{
			Dir: *dataDir, AutoCheckpointBytes: *ckptBytes,
		})
		if err != nil {
			fatal(fmt.Errorf("opening data dir %s: %w", *dataDir, err))
		}
		fmt.Printf("%s: %s\n", *dataDir, info)
	case *snapshot != "":
		if _, statErr := os.Stat(*snapshot); statErr == nil {
			db, err = engine.LoadFile(*snapshot, cfg)
			if err != nil {
				fatal(fmt.Errorf("loading %s: %w", *snapshot, err))
			}
			fmt.Printf("loaded snapshot %s\n", *snapshot)
		}
	}
	if db == nil {
		db, err = engine.Open(cfg)
		if err != nil {
			fatal(err)
		}
	}
	if *demo {
		g := workload.New(2015)
		if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{
			Tuples: 16, AnnotationsPerTuple: 30, DocumentFraction: 0.05, TrainPerClass: 8,
		}); err != nil {
			fatal(err)
		}
		fmt.Println("demo dataset loaded")
	}

	if *metricsAddr != "" {
		ms := &http.Server{Addr: *metricsAddr, Handler: server.NewDebugMux(db)}
		go func() {
			if err := ms.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "metrics sidecar:", err)
			}
		}()
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", *metricsAddr)
	}

	var sender *replication.Sender
	var receiver *replication.Receiver
	switch {
	case *replAddr != "":
		sender, err = replication.NewSender(db, replication.SenderConfig{})
		if err != nil {
			fatal(err)
		}
		rbound, err := sender.Listen(*replAddr)
		if err != nil {
			fatal(fmt.Errorf("replication listener: %w", err))
		}
		fmt.Printf("shipping WAL to replicas on %s\n", rbound)
	case *replFrom != "":
		receiver, err = replication.NewReceiver(db, replication.ReceiverConfig{
			PrimaryAddr: *replFrom, MaxStaleness: *maxStaleness,
		})
		if err != nil {
			fatal(err)
		}
		receiver.Start()
		fmt.Printf("following primary %s (max staleness %v)\n", *replFrom, *maxStaleness)
	}

	// Repair source: where the scrubber refetches heap pages whose only
	// clean copy is remote. Replicas default to their primary; a primary
	// (or standalone) repairs from -repair-from when given, otherwise
	// corrupt heap pages are quarantined and reads shed with CORRUPT.
	repairAddr := *repairFrom
	if repairAddr == "" {
		repairAddr = *replFrom
	}
	if repairAddr != "" {
		db.SetRepairSource(replication.SnapshotFetcher(repairAddr, 0))
		fmt.Printf("repairing corrupt pages from %s\n", repairAddr)
	}

	srv := server.New(db)
	if receiver != nil {
		srv.Replica = receiver
	}
	srv.StatementTimeout = *stmtTimeout
	srv.Admission = server.AdmissionConfig{
		MaxStatements: *admitMax, QueueDepth: *admitQueue, QueueTimeout: *admitTimeout,
	}
	srv.MaxConns = *maxConns
	srv.MaxFrameBytes = *maxFrame
	srv.IdleTimeout = *idleTimeout
	srv.WriteTimeout = *writeTimeout
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("insightnotesd listening on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down...")
	if err := srv.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}
	// Replication streams drain under the same bound as client statements:
	// a primary keeps shipping until connected replicas acknowledge
	// everything committed before shutdown; a replica finishes applying
	// its in-flight batch so the next start resumes exactly there.
	if sender != nil {
		if err := sender.Shutdown(*drainTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "replication shutdown:", err)
		}
	}
	if receiver != nil {
		if err := receiver.Shutdown(*drainTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "replication shutdown:", err)
		}
	}
	switch {
	case db.Durable():
		// Final checkpoint: the WAL alone would recover the state, but an
		// up-to-date snapshot makes the next startup replay nothing.
		if _, err := db.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "final checkpoint:", err)
		} else {
			fmt.Printf("final checkpoint written to %s\n", *dataDir)
		}
	case *snapshot != "":
		if err := db.SaveFile(*snapshot); err != nil {
			fatal(fmt.Errorf("saving %s: %w", *snapshot, err))
		}
		fmt.Printf("snapshot saved to %s\n", *snapshot)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "insightnotesd:", err)
	os.Exit(1)
}
