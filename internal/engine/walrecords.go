package engine

import (
	"fmt"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// WAL record bodies. Each record type has one payload struct and one
// encode/decode pair over internal/codec; the wal package frames the
// encoded body with its LSN and type name. Payloads carry resolved effects
// (ids, post-images), making replay deterministic; see durability.go. A
// checkpoint is a stream of the same records (see persist.go).
// Every decoder sizes what it allocates through Reader.Count, so a body
// can never make replay allocate more than its bytes describe, and
// decodeRecord ends each one on Reader.Done, so a body with bytes left over
// is as corrupt as one that ran short.

// Record types. Row ingest (INSERT and BULK INSERT) and annotation ingest
// (one annotation or a batch) each write one type, whatever the size of
// the statement.
const (
	walTypeCreateTable    = "create_table"
	walTypeCreateIndex    = "create_index"
	walTypeDropTable      = "drop_table"
	walTypeInsert         = "insert"
	walTypeUpdate         = "update"
	walTypeDelete         = "delete"
	walTypeCreateInstance = "create_instance"
	walTypeDropInstance   = "drop_instance"
	walTypeLink           = "link"
	walTypeAnnotate       = "annotate"
	walTypeDropAnnotation = "drop_annotation"
	walTypeTrain          = "train"
	walTypeRebuild        = "rebuild"
	// walTypeSummary and walTypeCheckpoint appear only in a checkpoint
	// stream, which they end: the stored summary envelopes, and the
	// trailer. Neither is ever logged.
	walTypeSummary    = "summary"
	walTypeCheckpoint = "checkpoint"
)

// walPayload is the body of one record type.
type walPayload interface {
	encode(w *codec.Writer)
	decode(r *codec.Reader)
}

// decodeRecord decodes a record body of recType. The decoder must read
// the whole body.
func decodeRecord(recType string, body []byte) (walPayload, error) {
	var p walPayload
	switch recType {
	case walTypeCreateTable:
		p = new(walCreateTable)
	case walTypeCreateIndex:
		p = new(walCreateIndex)
	case walTypeDropTable, walTypeDropInstance, walTypeRebuild:
		p = new(walName)
	case walTypeInsert, walTypeUpdate:
		p = new(walRows)
	case walTypeDelete:
		p = new(walDelete)
	case walTypeCreateInstance:
		p = new(walCreateInstance)
	case walTypeLink:
		p = new(walLink)
	case walTypeAnnotate:
		p = new(walAnnotate)
	case walTypeDropAnnotation:
		p = new(walDropAnnotation)
	case walTypeTrain:
		p = new(walTrain)
	case walTypeSummary:
		p = new(walSummaries)
	case walTypeCheckpoint:
		p = new(walCheckpoint)
	default:
		return nil, fmt.Errorf("engine: unknown wal record type %q", recType)
	}
	r := codec.NewReader(body)
	p.decode(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("engine: %s record: %w", recType, err)
	}
	return p, nil
}

type walCreateTable struct {
	Name    string
	Columns []types.Column // Name and Kind
}

func (p *walCreateTable) encode(w *codec.Writer) {
	w.Str(p.Name)
	w.Uvarint(uint64(len(p.Columns)))
	for _, c := range p.Columns {
		w.Str(c.Name)
		w.Byte(byte(c.Kind))
	}
}

func (p *walCreateTable) decode(r *codec.Reader) {
	p.Name = r.Str()
	p.Columns = make([]types.Column, r.Count(2))
	for i := range p.Columns {
		p.Columns[i] = types.Column{Name: r.Str(), Kind: types.Kind(r.Byte())}
	}
}

type walCreateIndex struct {
	Table, Column string
}

func (p *walCreateIndex) encode(w *codec.Writer) {
	w.Str(p.Table)
	w.Str(p.Column)
}

func (p *walCreateIndex) decode(r *codec.Reader) {
	p.Table = r.Str()
	p.Column = r.Str()
}

// walName serves the records that name one object: drop_table,
// drop_instance and rebuild (a table).
type walName struct {
	Name string
}

func (p *walName) encode(w *codec.Writer) { w.Str(p.Name) }
func (p *walName) decode(r *codec.Reader) { p.Name = r.Str() }

// walRows serves insert (assigned ids) and update (post-images).
type walRows struct {
	Table string
	Rows  []walRow
}

type walRow struct {
	ID     types.RowID
	Values types.Tuple
}

func (p *walRows) encode(w *codec.Writer) {
	w.Str(p.Table)
	w.Uvarint(uint64(len(p.Rows)))
	for _, row := range p.Rows {
		w.Uvarint(uint64(row.ID))
		w.Tuple(row.Values)
	}
}

func (p *walRows) decode(r *codec.Reader) {
	p.Table = r.Str()
	p.Rows = make([]walRow, r.Count(2))
	for i := range p.Rows {
		p.Rows[i] = walRow{ID: types.RowID(r.Uvarint()), Values: r.Tuple()}
	}
}

type walDelete struct {
	Table string
	Rows  []types.RowID
}

func (p *walDelete) encode(w *codec.Writer) {
	w.Str(p.Table)
	w.Uvarint(uint64(len(p.Rows)))
	for _, row := range p.Rows {
		w.Uvarint(uint64(row))
	}
}

func (p *walDelete) decode(r *codec.Reader) {
	p.Table = r.Str()
	p.Rows = make([]types.RowID, r.Count(1))
	for i := range p.Rows {
		p.Rows[i] = types.RowID(r.Uvarint())
	}
}

type walCreateInstance struct {
	// Instance is as created when logged (later TRAIN records replay the
	// training), as trained in a checkpoint.
	Instance *summary.Instance
}

func (p *walCreateInstance) encode(w *codec.Writer) { p.Instance.Encode(w) }
func (p *walCreateInstance) decode(r *codec.Reader) { p.Instance = summary.DecodeInstance(r) }

type walLink struct {
	Instance, Table string
	Unlink          bool
}

func (p *walLink) encode(w *codec.Writer) {
	w.Str(p.Instance)
	w.Str(p.Table)
	w.Bool(p.Unlink)
}

func (p *walLink) decode(r *codec.Reader) {
	p.Instance = r.Str()
	p.Table = r.Str()
	p.Unlink = r.Bool()
}

// walAnnotate carries annotations in id order: one ingest's when logged,
// a chunk of the database's in a checkpoint.
type walAnnotate struct {
	Anns []walAnnotation
}

// walAnnotation is one annotation and its resolved targets.
type walAnnotation struct {
	annotation.Annotation
	Targets []annotation.Target
	// scopes counts Targets per attachment scope, in order, for the
	// statement that resolved them; maintenance keeps a scope's rows in
	// one target (see annotationTasks). It is not logged: a decoded
	// record has none.
	scopes []int
}

func (p *walAnnotate) encode(w *codec.Writer) {
	w.Uvarint(uint64(len(p.Anns)))
	for _, a := range p.Anns {
		w.Uvarint(uint64(a.ID))
		w.Str(a.Author)
		w.Varint(a.Created)
		w.Str(a.Text)
		w.Str(a.Title)
		w.Str(a.Document)
		w.Uvarint(uint64(len(a.Targets)))
		for _, tg := range a.Targets {
			w.Str(tg.Table)
			w.Uvarint(uint64(tg.Row))
			w.Uvarint(uint64(tg.Columns))
		}
	}
}

func (p *walAnnotate) decode(r *codec.Reader) {
	p.Anns = make([]walAnnotation, r.Count(8))
	for i := range p.Anns {
		a := &p.Anns[i]
		a.ID = annotation.ID(r.Uvarint())
		a.Author = r.Str()
		a.Created = r.Varint()
		a.Text = r.Str()
		a.Title = r.Str()
		a.Document = r.Str()
		a.Targets = make([]annotation.Target, r.Count(3))
		for j := range a.Targets {
			a.Targets[j] = annotation.Target{Table: r.Str(), Row: types.RowID(r.Uvarint()), Columns: annotation.ColSet(r.Uvarint())}
		}
	}
}

type walDropAnnotation struct {
	ID annotation.ID
}

func (p *walDropAnnotation) encode(w *codec.Writer) { w.Uvarint(uint64(p.ID)) }
func (p *walDropAnnotation) decode(r *codec.Reader) { p.ID = annotation.ID(r.Uvarint()) }

type walTrain struct {
	Instance string
	Samples  [][2]string
}

func (p *walTrain) encode(w *codec.Writer) {
	w.Str(p.Instance)
	w.Uvarint(uint64(len(p.Samples)))
	for _, s := range p.Samples {
		w.Str(s[0])
		w.Str(s[1])
	}
}

func (p *walTrain) decode(r *codec.Reader) {
	p.Instance = r.Str()
	p.Samples = make([][2]string, r.Count(2))
	for i := range p.Samples {
		p.Samples[i] = [2]string{r.Str(), r.Str()}
	}
}

// walSummaries carries stored summary envelopes of one table, in row
// order: a chunk of a checkpoint's. Each body is a summary.Envelope
// encoding, decoded at install, where the catalog resolves its instances.
type walSummaries struct {
	Table string
	Envs  []walEnvelope
}

type walEnvelope struct {
	Row  types.RowID
	Body []byte
}

func (p *walSummaries) encode(w *codec.Writer) {
	w.Str(p.Table)
	w.Uvarint(uint64(len(p.Envs)))
	for _, e := range p.Envs {
		w.Uvarint(uint64(e.Row))
		w.Section(e.Body)
	}
}

func (p *walSummaries) decode(r *codec.Reader) {
	p.Table = r.Str()
	p.Envs = make([]walEnvelope, r.Count(5))
	for i := range p.Envs {
		p.Envs[i] = walEnvelope{Row: types.RowID(r.Uvarint()), Body: r.Section()}
	}
}

// walCheckpoint is a checkpoint stream's trailer: the WAL position the
// checkpoint includes, the id allocators' positions, and the number of
// records before it.
type walCheckpoint struct {
	LSN            uint64
	NextRows       []walNextRow
	NextAnnotation annotation.ID
	AnnClock       int64
	Records        uint64
}

// walNextRow is one table's row-id allocator position.
type walNextRow struct {
	Table string
	Next  types.RowID
}

func (p *walCheckpoint) encode(w *codec.Writer) {
	w.Uvarint(p.LSN)
	w.Uvarint(uint64(len(p.NextRows)))
	for _, nr := range p.NextRows {
		w.Str(nr.Table)
		w.Uvarint(uint64(nr.Next))
	}
	w.Uvarint(uint64(p.NextAnnotation))
	w.Varint(p.AnnClock)
	w.Uvarint(p.Records)
}

func (p *walCheckpoint) decode(r *codec.Reader) {
	p.LSN = r.Uvarint()
	p.NextRows = make([]walNextRow, r.Count(2))
	for i := range p.NextRows {
		p.NextRows[i] = walNextRow{Table: r.Str(), Next: types.RowID(r.Uvarint())}
	}
	p.NextAnnotation = annotation.ID(r.Uvarint())
	p.AnnClock = r.Varint()
	p.Records = r.Uvarint()
}
