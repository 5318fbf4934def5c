package engine

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
)

// Checkpoint format: the complete logical state as a stream of the WAL's
// own records, each in the log's frame (length, CRC, format byte, sequence
// number, type, body) — the shortest log that rebuilds the database. In
// dependency order:
//
//	create_table, insert…, create_index…   per table
//	create_instance, link…                 per summary instance (trained)
//	annotate…                              in id order
//	summary…                               stored envelopes, in (table, row) order
//	checkpoint                             the trailer
//
// Record i carries sequence number i; insert, annotate and summary records
// are cut into chunks of about checkpointChunkBytes. The trailer holds the
// WAL LSN the checkpoint includes, so recovery skips log records at or
// below it; the id-allocator positions (each table's next row id, the next
// annotation id, the annotation clock), so ids assigned after recovery
// never collide with ids deleted before the checkpoint; and the number of
// records before it.
//
// Summary objects are stored: the summary records hold every non-empty
// envelope (summary.Envelope.Encode), which loading installs as it stands.
// The annotate records restore the raw annotations zoom-in reads and
// summarize nothing, so a load runs no Summarize call; only the log tail
// replayed after it does (see redo).
//
// Save, CHECKPOINT and a replica resync write this stream; Load,
// OpenDurable and InstallReplicaSnapshot read it through readCheckpoint,
// strictly: nothing appends to a checkpoint, so a short or damaged frame, a
// missing trailer or a record count that does not match makes the whole
// stream corrupt.

// checkpointChunkBytes bounds the body of one insert, annotate or summary
// record of a checkpoint, well under the log's 64 MiB frame cap.
const checkpointChunkBytes = 1 << 20

// Save writes the complete database state to w. It runs under the shared
// statement lock: concurrent queries proceed, writes wait.
func (db *DB) Save(w io.Writer) error {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return db.writeCheckpoint(w, 0)
}

// SaveFile is Save to a file path, published atomically and durably.
func (db *DB) SaveFile(path string) error {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return publishCheckpoint(path, func(w io.Writer) error { return db.writeCheckpoint(w, 0) })
}

// writeCheckpoint writes the database as a checkpoint stream including the
// WAL up to lsn. Callers hold the statement lock (shared or exclusive).
func (db *DB) writeCheckpoint(w io.Writer, lsn uint64) error {
	// The envelopes are stored as they stand, so deferred maintenance must
	// have reached them first.
	db.maint.drain()
	if n := db.maint.pending(); n > 0 {
		return fmt.Errorf("engine: %d deferred summary update(s) pending with the catch-up worker stopped", n)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	var n uint64 // records written
	var body, frame []byte
	var werr error // the first error sticks: later records are dropped
	put := func(recType string, p walPayload) {
		if werr != nil {
			return
		}
		enc := codec.NewWriter(body[:0])
		p.encode(enc)
		body = enc.Bytes()
		n++
		if frame, werr = wal.AppendFrame(frame[:0], wal.Record{LSN: n, Type: recType, Data: body}); werr == nil {
			_, werr = bw.Write(frame)
		}
	}
	trailer := walCheckpoint{LSN: lsn, NextAnnotation: db.anns.NextID(), AnnClock: db.annClock.Load()}
	tables := db.cat.TableNames()
	var tuple []byte // one row's encoding, to size insert chunks
	for _, name := range tables {
		tbl, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		put(walTypeCreateTable, &walCreateTable{Name: name, Columns: tbl.Schema().Columns})
		rows, size := walRows{Table: name}, 0
		tbl.Scan(func(row types.RowID, tu types.Tuple) bool {
			rows.Rows = append(rows.Rows, walRow{ID: row, Values: tu})
			tuple = types.EncodeTuple(tuple[:0], tu)
			if size += len(tuple) + 10; size >= checkpointChunkBytes {
				put(walTypeInsert, &rows)
				rows.Rows, size = rows.Rows[:0], 0
			}
			return werr == nil
		})
		if len(rows.Rows) > 0 {
			put(walTypeInsert, &rows)
		}
		indexed := tbl.IndexedColumns()
		slices.Sort(indexed)
		for _, col := range indexed {
			put(walTypeCreateIndex, &walCreateIndex{Table: name, Column: col})
		}
		trailer.NextRows = append(trailer.NextRows, walNextRow{Table: name, Next: tbl.NextRow()})
	}
	for _, name := range db.cat.InstanceNames() {
		in, err := db.cat.Instance(name)
		if err != nil {
			return err
		}
		put(walTypeCreateInstance, &walCreateInstance{Instance: in})
		for _, tbl := range db.cat.TablesFor(name) {
			put(walTypeLink, &walLink{Instance: name, Table: tbl})
		}
	}
	anns, err := db.annotationsInIDOrder(tables)
	if err != nil {
		return err
	}
	for len(anns) > 0 {
		n, size := 0, 0
		for n < len(anns) && size < checkpointChunkBytes {
			size += annotationBytes(&anns[n])
			n++
		}
		put(walTypeAnnotate, &walAnnotate{Anns: anns[:n]})
		anns = anns[n:]
	}
	var env []byte // one envelope's encoding
	for _, name := range tables {
		tbl, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		sums, size := walSummaries{Table: name}, 0
		for _, r := range tbl.Rows() {
			if r.Env == nil || r.Env.IsEmpty() {
				continue
			}
			enc := codec.NewWriter(env[:0])
			r.Env.Encode(enc)
			env = enc.Bytes()
			sums.Envs = append(sums.Envs, walEnvelope{Row: r.ID, Body: slices.Clone(env)})
			size += len(env) + 10
			if size >= checkpointChunkBytes {
				put(walTypeSummary, &sums)
				sums.Envs, size = sums.Envs[:0], 0
			}
		}
		if len(sums.Envs) > 0 {
			put(walTypeSummary, &sums)
		}
	}
	trailer.Records = n
	put(walTypeCheckpoint, &trailer)
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// annotationsInIDOrder returns every annotation on tables, deduplicated
// across multi-tuple targets, in id order.
func (db *DB) annotationsInIDOrder(tables []string) ([]walAnnotation, error) {
	var out []walAnnotation
	seen := map[annotation.ID]bool{}
	for _, name := range tables {
		for _, row := range db.anns.AnnotatedRows(name) {
			for _, ref := range db.anns.ForTuple(name, row) {
				if seen[ref.ID] {
					continue
				}
				seen[ref.ID] = true
				a, err := db.anns.Get(ref.ID)
				if err != nil {
					return nil, err
				}
				out = append(out, walAnnotation{Annotation: a, Targets: db.anns.TargetsOf(ref.ID)})
			}
		}
	}
	slices.SortFunc(out, func(a, b walAnnotation) int { return cmp.Compare(a.ID, b.ID) })
	return out, nil
}

// annotationBytes approximates the encoded size of wa, to size chunks.
func annotationBytes(wa *walAnnotation) int {
	n := 32 + len(wa.Author) + len(wa.Text) + len(wa.Title) + len(wa.Document)
	for _, tg := range wa.Targets {
		n += 16 + len(tg.Table)
	}
	return n
}

// publishCheckpoint atomically replaces path with what write produces:
// temp file, fsync, rename, then an fsync of the directory, so the rename
// is durable before a caller truncates the log the checkpoint supersedes.
// CHECKPOINT, SaveFile and a replica's resync all publish through it. The
// checkpoint failpoints are evaluated here so crash tests cover every
// ordering of "temp written / checkpoint published / WAL reset".
func publishCheckpoint(path string, write func(io.Writer) error) error {
	if err := failpoint.Eval(failpoint.CheckpointSnapshotWrite); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = failpoint.Eval(failpoint.CheckpointBeforeRename)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// The checkpoint is published. From here a crash is recoverable even
	// if the caller's log reset never happens (LSN skip).
	return failpoint.Eval(failpoint.CheckpointAfterRename)
}

// corruptf builds the uniform descriptive error for malformed checkpoints.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("engine: corrupt checkpoint: %s", fmt.Sprintf(format, args...))
}

// readCheckpoint reads a checkpoint stream, handing every record before the
// trailer to apply, and returns the trailer. A document that opens with '{'
// is a JSON snapshot from an older build, which is refused by name: there
// is no migration.
func readCheckpoint(raw []byte, apply func(wal.Record) error) (*walCheckpoint, error) {
	if len(raw) > 0 && raw[0] == '{' {
		return nil, fmt.Errorf("engine: a JSON snapshot from an older build; this build reads record-stream checkpoints (WAL format 4) only")
	}
	for n := uint64(0); ; n++ {
		if len(raw) == 0 {
			return nil, corruptf("the stream ends after %d record(s) without its trailer", n)
		}
		rec, rest, err := wal.SplitFrame(raw)
		if err != nil {
			return nil, corruptf("record %d: %v", n+1, err)
		}
		raw = rest
		if rec.Type != walTypeCheckpoint {
			if err := apply(rec); err != nil {
				return nil, corruptf("%s record %d: %v", rec.Type, n+1, err)
			}
			continue
		}
		p, err := decodeRecord(rec.Type, rec.Data)
		if err != nil {
			return nil, corruptf("%v", err)
		}
		trailer := p.(*walCheckpoint)
		if trailer.Records != n {
			return nil, corruptf("the trailer counts %d record(s), the stream holds %d", trailer.Records, n)
		}
		if len(raw) > 0 {
			return nil, corruptf("%d byte(s) after the trailer", len(raw))
		}
		return trailer, nil
	}
}

// Load restores a database from a checkpoint written by Save into a fresh
// DB with the given configuration. The stored summary objects are
// installed as they were saved, not recomputed.
//
// Load validates defensively — a damaged or truncated stream, duplicate
// tables or rows, unknown instance types, annotations targeting missing
// tables or rows, envelopes that break their invariants (see
// summary.DecodeEnvelope) all produce a descriptive error, never a panic:
// a corrupt checkpoint must fail the recovery cleanly rather than take
// down (or silently skew) the engine.
func Load(r io.Reader, cfg Config) (*DB, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return load(raw, cfg)
}

func load(raw []byte, cfg Config) (*DB, error) {
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := db.loadCheckpoint(raw); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// loadCheckpoint populates db from a checkpoint stream. The receiver must
// hold no state that collides with the stream's objects: a freshly opened
// DB, or one just cleared for a replica resync. Callers own the statement
// lock story (Load's DB is unshared; the resync path holds it
// exclusively).
func (db *DB) loadCheckpoint(raw []byte) error {
	rd := redo{db: db, checkpoint: true}
	trailer, err := readCheckpoint(raw, rd.apply)
	if err != nil {
		return err
	}
	for _, nr := range trailer.NextRows {
		tbl, err := db.cat.Table(nr.Table)
		if err != nil {
			return corruptf("the trailer names unknown table %q", nr.Table)
		}
		tbl.EnsureNextRow(nr.Next)
	}
	db.anns.EnsureNextID(trailer.NextAnnotation)
	if trailer.AnnClock > db.annClock.Load() {
		db.annClock.Store(trailer.AnnClock)
	}
	db.recoveredLSN = trailer.LSN
	return nil
}

// LoadFile is Load from a file path, read in one buffer sized by the
// file.
func LoadFile(path string, cfg Config) (*DB, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return load(raw, cfg)
}
