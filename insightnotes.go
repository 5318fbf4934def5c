// Package insightnotes is a summary-based annotation management engine
// over relational data — a from-scratch Go reproduction of the InsightNotes
// system (Xiao, Bashllari, Menard, Eltabakh: "Even Metadata is Getting Big:
// Annotation Summarization using InsightNotes", SIGMOD 2015, and the
// companion SIGMOD 2014 research paper).
//
// Instead of propagating raw annotations through queries, InsightNotes
// mines them into compact per-tuple summary objects — Classifier label
// counts, Cluster groups with elected representatives, and Snippet extracts
// of attached documents — and extends every relational operator to curate
// and merge those objects inside the pipeline. Users interactively
// "zoom in" on reported summaries to retrieve the raw annotations behind
// them, served by a disk-based materialization cache under the RCO
// replacement policy.
//
// # Quick start
//
// The statement API is context-first: every entry point takes a
// context.Context and optional per-statement options (WithTrace,
// WithParallelism, WithBatchSize, WithPlanOptions).
//
//	db, err := insightnotes.Open(insightnotes.Config{})
//	ctx := context.Background()
//	// CREATE TABLE / INSERT as usual:
//	db.Exec(ctx, `CREATE TABLE birds (id INT, name TEXT)`)
//	db.Exec(ctx, `INSERT INTO birds VALUES (1, 'Swan Goose')`)
//	// Define and link summary instances:
//	db.Exec(ctx, `CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier
//	         LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')`)
//	db.Exec(ctx, `TRAIN SUMMARY ClassBird1 ('found eating stonewort', 'Behavior')`)
//	db.Exec(ctx, `LINK SUMMARY ClassBird1 TO birds`)
//	// Annotate:
//	db.Exec(ctx, `ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 1`)
//	// Query — results carry summary objects and a QID:
//	res, _ := db.Query(ctx, `SELECT id, name FROM birds`)
//	// Zoom in on a summary element to get the raw annotations back:
//	db.Exec(ctx, fmt.Sprintf(
//	    `ZOOMIN REFERENCE QID %d ON ClassBird1 INDEX 1`, res.QID))
//
// The full statement grammar, architecture notes, and the experiment
// reproduction index live in README.md, DESIGN.md, and EXPERIMENTS.md.
package insightnotes

import (
	"insightnotes/internal/annotation"
	"insightnotes/internal/engine"
	"insightnotes/internal/server"
	"insightnotes/internal/zoomin"
)

// Core engine types, re-exported as the public API surface.
type (
	// DB is an InsightNotes database instance.
	DB = engine.DB
	// Config tunes a DB (buffer pool size, zoom-in cache, plan options).
	Config = engine.Config
	// Result is the outcome of one executed statement.
	Result = engine.Result
	// StatementStats is the per-statement runtime summary attached to
	// SELECT and EXPLAIN ANALYZE results.
	StatementStats = engine.StatementStats
	// AnnotationRequest describes a programmatic annotation ingestion.
	AnnotationRequest = engine.AnnotationRequest
	// TargetSpec scopes one attachment of a multi-target annotation.
	TargetSpec = engine.TargetSpec
	// ZoomInRequest is the programmatic form of the ZOOMIN command.
	ZoomInRequest = engine.ZoomInRequest
	// ZoomRowResult is one zoom-in expansion: a result tuple and the raw
	// annotations behind the addressed summary element.
	ZoomRowResult = engine.ZoomRowResult
	// CachePolicy selects the zoom-in cache replacement policy.
	CachePolicy = zoomin.Policy
	// CacheStats reports zoom-in cache effectiveness.
	CacheStats = zoomin.CacheStats
	// Annotation is one raw annotation (text, optional titled document,
	// author, creation time).
	Annotation = annotation.Annotation
	// AnnotationID identifies a stored annotation.
	AnnotationID = annotation.ID
	// ColSet is a bitmask of covered column ordinals on a tuple.
	ColSet = annotation.ColSet
	// StatementOption tunes one statement execution on the context-first
	// Query/Exec/ExecScript entry points.
	StatementOption = engine.StatementOption
)

// Per-statement options for the context-first statement API.
var (
	// WithTrace enables the under-the-hood operator log (Result.Trace).
	WithTrace = engine.WithTrace
	// WithPlanOptions substitutes ablation plan options for one statement;
	// such SELECTs are not QID-registered and skip the zoom-in cache.
	WithPlanOptions = engine.WithPlanOptions
	// WithParallelism overrides the scan worker count.
	WithParallelism = engine.WithParallelism
	// WithBatchSize overrides the executor's rows-per-batch granularity.
	WithBatchSize = engine.WithBatchSize
)

// Open creates a database instance with the given configuration. The zero
// Config yields an in-memory engine with a temp-directory zoom-in cache
// managed by the RCO policy.
func Open(cfg Config) (*DB, error) { return engine.Open(cfg) }

// MustOpen is Open that panics on error, for examples and tests.
func MustOpen(cfg Config) *DB { return engine.MustOpen(cfg) }

// LoadFile restores a database from a snapshot file written by
// DB.SaveFile. Summary objects are rebuilt by replaying the persisted raw
// annotations through incremental maintenance.
func LoadFile(path string, cfg Config) (*DB, error) { return engine.LoadFile(path, cfg) }

// RCO returns the paper's Recency-Complexity-Overhead cache replacement
// policy (the default).
func RCO() CachePolicy { return zoomin.RCO{} }

// LRU returns the baseline least-recently-used policy, provided for
// comparison benchmarks.
func LRU() CachePolicy { return zoomin.LRU{} }

// Network middleware types (see internal/server for the wire protocol).
type (
	// Server serves a DB over TCP with a newline-delimited JSON protocol.
	Server = server.Server
	// Client connects to a Server. Statements run through the
	// context-first Client.Do with functional CallOptions.
	Client = server.Client
	// ClientStmt is a prepared statement handle from Client.Prepare.
	ClientStmt = server.Stmt
	// CallOption configures one Client.Do call (WithClientArgs,
	// WithClientTrace, WithClientRetry, WithClientMutation).
	CallOption = server.CallOption
	// ServerResponse is one reply from a Server.
	ServerResponse = server.Response
)

// Client call options, re-exported under Client-prefixed names (the bare
// names collide with the engine's statement options above).
var (
	WithClientArgs     = server.WithArgs
	WithClientTrace    = server.WithTrace
	WithClientRetry    = server.WithRetry
	WithClientMutation = server.WithMutation
)

// Serve wraps db in a Server and starts listening on addr (use ":0" for an
// ephemeral port). It returns the server and the bound address.
func Serve(db *DB, addr string) (*Server, string, error) {
	srv := server.New(db)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// DialServer connects a client to a running Server.
func DialServer(addr string) (*Client, error) { return server.Dial(addr) }
