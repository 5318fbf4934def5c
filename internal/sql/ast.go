package sql

import (
	"fmt"
	"strings"

	"insightnotes/internal/types"
)

// Statement is any parsed SQL or InsightNotes statement.
type Statement interface {
	// Class is the statement's row in the classification table at the end
	// of this file.
	Class() Class
	String() string
}

// Access is how a statement touches the database. It decides the lock the
// engine runs the statement under and what a read replica does with it.
type Access uint8

const (
	// Read statements run under the shared statement lock; a replica
	// serves them while it is within its staleness bound.
	Read Access = iota
	// Write statements run in the engine's commit shell (exclusive lock,
	// WAL record, group-commit fsync); a replica rejects them as READ_ONLY.
	Write
	// NodeLocal statements touch only state this node owns — the prepared
	// registry, its own pages — and take whatever locks they need
	// themselves; a replica lets them through at any staleness. EXECUTE is
	// listed here and then takes the class of the template it runs.
	NodeLocal
)

// Class says what a statement is: Kind is its label in metrics, traces
// and the slow-query log, Access its access class.
type Class struct {
	Kind   string
	Access Access
}

// Expr is any scalar expression.
type Expr interface {
	exprNode()
	String() string
}

// ---- expressions ----

// Literal is a constant value.
type Literal struct{ Val types.Value }

// ColRef references a column, possibly qualified ("r.a").
type ColRef struct{ Name string }

// BinaryExpr applies a binary operator: comparison (= <> < <= > >=),
// arithmetic (+ - * /), logical (AND OR), or LIKE.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string
	X  Expr
}

// IsNullExpr tests X IS [NOT] NULL.
type IsNullExpr struct {
	X      Expr
	Negate bool
}

// FuncCall is an aggregate call: COUNT/SUM/AVG/MIN/MAX. Star marks
// COUNT(*).
type FuncCall struct {
	Name string // upper-cased
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

// InExpr tests X [NOT] IN (list).
type InExpr struct {
	X      Expr
	List   []Expr
	Negate bool
}

// BetweenExpr tests X [NOT] BETWEEN Lo AND Hi (inclusive).
type BetweenExpr struct {
	X, Lo, Hi Expr
	Negate    bool
}

// SummaryCall is a summary-based predicate term (§2.1: "filtering,
// joining, or sorting the data tuples according to summary-based
// predicates"):
//
//	SUMMARY_COUNT(instance, 'Label') — classifier count of one label
//	SUMMARY_TOTAL(instance)          — annotations contributing to the object
//	SUMMARY_GROUPS(instance)         — number of cluster groups
//
// It evaluates against the summary envelope a tuple carries at that point
// in the pipeline.
type SummaryCall struct {
	Func     string // upper-cased: SUMMARY_COUNT, SUMMARY_TOTAL, SUMMARY_GROUPS
	Instance string
	Label    string // SUMMARY_COUNT only
}

// Param is a positional placeholder ($1, $2, ...) in a prepared
// statement. Index is 1-based. A Param survives only until EXECUTE binds
// it: BindParams substitutes a Literal before planning, so the planner,
// compiler, and executor never see one.
type Param struct{ Index int }

func (*Literal) exprNode()     {}
func (*Param) exprNode()       {}
func (*ColRef) exprNode()      {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*IsNullExpr) exprNode()  {}
func (*FuncCall) exprNode()    {}
func (*SummaryCall) exprNode() {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}

// String implements Expr.
func (e *Literal) String() string { return e.Val.SQLString() }

// String implements Expr.
func (e *Param) String() string { return fmt.Sprintf("$%d", e.Index) }

// String implements Expr.
func (e *ColRef) String() string { return e.Name }

// String implements Expr.
func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// String implements Expr.
func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", e.X)
	}
	return fmt.Sprintf("(%s%s)", e.Op, e.X)
}

// String implements Expr.
func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X)
	}
	return fmt.Sprintf("(%s IS NULL)", e.X)
}

// String implements Expr.
func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	return fmt.Sprintf("%s(%s)", e.Name, e.Arg)
}

// String implements Expr.
func (e *InExpr) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(e.X.String())
	if e.Negate {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	for i, it := range e.List {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString("))")
	return b.String()
}

// String implements Expr.
func (e *BetweenExpr) String() string {
	neg := ""
	if e.Negate {
		neg = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", e.X, neg, e.Lo, e.Hi)
}

// String implements Expr.
func (e *SummaryCall) String() string {
	if e.Func == "SUMMARY_COUNT" {
		return fmt.Sprintf("%s(%s, '%s')", e.Func, e.Instance, strings.ReplaceAll(e.Label, "'", "''"))
	}
	return fmt.Sprintf("%s(%s)", e.Func, e.Instance)
}

// ---- statements ----

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Kind types.Kind
}

// CreateTable is CREATE TABLE name (col TYPE, ...).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

// CreateIndex is CREATE INDEX ON table (col).
type CreateIndex struct {
	Table  string
	Column string
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// Insert is [BULK] INSERT INTO table VALUES (...), (...). Either spelling
// is one atomic row ingest — one lock acquisition, one WAL record — and
// Bulk only keeps the two apart in metrics and messages.
type Insert struct {
	Table string
	Rows  [][]Expr
	Bulk  bool
}

// Explain is EXPLAIN [ANALYZE] SELECT ...: report the physical plan (the
// operator tree with its summary-manipulation stages). With ANALYZE the
// query is executed and each operator is annotated with its runtime
// statistics (rows produced, envelope merges/curates, wall time).
type Explain struct {
	Query   *Select
	Analyze bool
}

// Update is UPDATE table SET col = expr, ... [WHERE cond]. Annotations
// remain attached to updated tuples (they annotate tuple identity).
type Update struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM table [WHERE cond]. Deleting a tuple detaches its
// annotations; annotations attached nowhere else are removed entirely.
type Delete struct {
	Table string
	Where Expr
}

// DropAnnotation is DROP ANNOTATION id: retract one raw annotation and
// curate its effect out of every maintained summary object.
type DropAnnotation struct {
	ID int
}

// TableRef names a relation in FROM, optionally aliased.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveAlias returns the alias, or the table name when unaliased.
func (r TableRef) EffectiveAlias() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

// JoinClause is an explicit [INNER] JOIN ref ON cond.
type JoinClause struct {
	Ref TableRef
	On  Expr
}

// SelectItem is one projection item: an expression with optional alias, or
// a star (optionally qualified, "r.*").
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	StarTable string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT statement over one or more relations.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 = no limit
}

// AddAnnotation is the InsightNotes annotation-ingestion statement:
//
//	ADD ANNOTATION 'text' [TITLE '...'] [DOCUMENT '...'] [AUTHOR '...']
//	    ON table[(col, ...)] [WHERE cond];
//
// The annotation attaches to the named columns (whole row when omitted) of
// every tuple satisfying the condition.
type AddAnnotation struct {
	Text     string
	Title    string
	Document string
	Author   string
	Table    string
	Columns  []string
	Where    Expr
}

// CreateSummaryInstance is
//
//	CREATE SUMMARY INSTANCE name TYPE Classifier|Cluster|Snippet
//	    [WITH (key = value, ...)] [LABELS ('a', 'b', ...)];
type CreateSummaryInstance struct {
	Name    string
	Type    string
	Labels  []string
	Options map[string]types.Value // lower-cased keys
}

// DropSummaryInstance is DROP SUMMARY INSTANCE name.
type DropSummaryInstance struct{ Name string }

// TrainSummary feeds labeled examples to a classifier instance:
//
//	TRAIN SUMMARY name ('sample text', 'Label'), (...);
type TrainSummary struct {
	Name    string
	Samples [][2]string // text, label
}

// LinkSummary is LINK SUMMARY instance TO table (or UNLINK ... FROM ...).
type LinkSummary struct {
	Instance string
	Table    string
	Unlink   bool
}

// ZoomIn is the paper's zoom-in command (Figure 3):
//
//	ZOOMIN REFERENCE QID n [WHERE cond] ON instance INDEX k;
type ZoomIn struct {
	QID      int
	Where    Expr
	Instance string
	Index    int
}

// Prepare is PREPARE name AS <statement>: parse and register a statement
// template whose expressions may contain positional placeholders
// ($1...$n), for later EXECUTE. Text is the template's SQL (everything
// after AS), kept verbatim so the engine can key its plan cache on it.
type Prepare struct {
	Name string
	Stmt Statement
	Text string
}

// Execute is EXECUTE name [USING expr, ...] (or the parenthesized
// EXECUTE name (expr, ...) form): run a prepared statement with the
// given argument values bound to its placeholders. Arguments must be
// constant expressions (literals, possibly negated).
type Execute struct {
	Name string
	Args []Expr
}

// Deallocate is DEALLOCATE [PREPARE] name: drop a prepared statement.
type Deallocate struct{ Name string }

// Checkpoint is CHECKPOINT: persist a snapshot of the full database
// state to the durability directory and rotate the write-ahead log.
// Errors when the engine was opened without durability.
type Checkpoint struct{}

// CheckTable is CHECK TABLE t: synchronously verify every page of the
// table's heap (checksums and structural invariants) and every secondary
// index against it, attempting repair of anything found corrupt.
type CheckTable struct {
	Table string
}

// Show is SHOW TABLES | SHOW SUMMARIES | SHOW ANNOTATIONS ON table |
// SHOW METRICS [LIKE 'pat'] | SHOW TRACES [LIMIT n] | SHOW TRACE id |
// SHOW INTEGRITY.
type Show struct {
	What  string // "TABLES", "SUMMARIES", "ANNOTATIONS", "METRICS", "TRACES", "TRACE", "INTEGRITY"
	Table string
	// Pattern is the optional LIKE filter of SHOW METRICS, matched against
	// flattened sample names.
	Pattern string
	// Limit bounds SHOW TRACES output (0 = engine default).
	Limit int
	// TraceID is the id argument of SHOW TRACE.
	TraceID string
}

// The classification table: one row per statement type, and the only place
// that says what a statement is. The engine's dispatcher, its statement
// metrics and the replica gate all read it.
func (*Select) Class() Class                { return Class{"select", Read} }
func (*Show) Class() Class                  { return Class{"show", Read} }
func (*Explain) Class() Class               { return Class{"explain", Read} }
func (*ZoomIn) Class() Class                { return Class{"zoomin", Read} }
func (*CreateTable) Class() Class           { return Class{"create_table", Write} }
func (*CreateIndex) Class() Class           { return Class{"create_index", Write} }
func (*DropTable) Class() Class             { return Class{"drop_table", Write} }
func (s *Insert) Class() Class              { return Class{s.verb("insert", "bulk_insert"), Write} }
func (*Update) Class() Class                { return Class{"update", Write} }
func (*Delete) Class() Class                { return Class{"delete", Write} }
func (*AddAnnotation) Class() Class         { return Class{"annotate", Write} }
func (*DropAnnotation) Class() Class        { return Class{"drop_annotation", Write} }
func (*CreateSummaryInstance) Class() Class { return Class{"create_summary", Write} }
func (*DropSummaryInstance) Class() Class   { return Class{"drop_summary", Write} }
func (*TrainSummary) Class() Class          { return Class{"train", Write} }
func (*LinkSummary) Class() Class           { return Class{"link", Write} }
func (*Checkpoint) Class() Class            { return Class{"checkpoint", Write} }
func (*CheckTable) Class() Class            { return Class{"check", NodeLocal} }
func (*Prepare) Class() Class               { return Class{"prepare", NodeLocal} }
func (*Execute) Class() Class               { return Class{"execute", NodeLocal} }
func (*Deallocate) Class() Class            { return Class{"deallocate", NodeLocal} }

// String implements Statement.
func (s *Prepare) String() string {
	return fmt.Sprintf("PREPARE %s AS %s", s.Name, s.Stmt)
}

// String implements Statement.
func (s *Execute) String() string {
	var b strings.Builder
	b.WriteString("EXECUTE " + s.Name)
	if len(s.Args) > 0 {
		b.WriteString(" USING ")
		for i, a := range s.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	return b.String()
}

// String implements Statement.
func (s *Deallocate) String() string { return "DEALLOCATE " + s.Name }

// String implements Statement.
func (s *Checkpoint) String() string { return "CHECKPOINT" }

// String implements Statement.
func (s *CheckTable) String() string { return "CHECK TABLE " + s.Table }

// String implements Statement.
func (s *CreateTable) String() string {
	cols := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = c.Name + " " + c.Kind.String()
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", s.Name, strings.Join(cols, ", "))
}

// String implements Statement.
func (s *CreateIndex) String() string {
	return fmt.Sprintf("CREATE INDEX ON %s (%s)", s.Table, s.Column)
}

// String implements Statement.
func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

// String implements Statement.
func (s *Insert) String() string {
	return fmt.Sprintf("%s INTO %s VALUES ... (%d rows)", s.verb("INSERT", "BULK INSERT"), s.Table, len(s.Rows))
}

// verb picks the wording for this statement's spelling.
func (s *Insert) verb(plain, bulk string) string {
	if s.Bulk {
		return bulk
	}
	return plain
}

// String implements Statement.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			b.WriteString(it.StarTable + ".*")
		case it.Star:
			b.WriteString("*")
		default:
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
	}
	b.WriteString(" FROM ")
	for i, r := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Name)
		if r.Alias != "" {
			b.WriteString(" " + r.Alias)
		}
	}
	for _, j := range s.Joins {
		fmt.Fprintf(&b, " JOIN %s", j.Ref.Name)
		if j.Ref.Alias != "" {
			b.WriteString(" " + j.Ref.Alias)
		}
		fmt.Fprintf(&b, " ON %s", j.On)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		fmt.Fprintf(&b, " HAVING %s", s.Having)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// String implements Statement.
func (s *Explain) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Query.String()
	}
	return "EXPLAIN " + s.Query.String()
}

// String implements Statement.
func (s *Update) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPDATE %s SET ", s.Table)
	for i, c := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", c.Column, c.Value)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	return b.String()
}

// String implements Statement.
func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += fmt.Sprintf(" WHERE %s", s.Where)
	}
	return out
}

// String implements Statement.
func (s *DropAnnotation) String() string {
	return fmt.Sprintf("DROP ANNOTATION %d", s.ID)
}

// String implements Statement.
func (s *AddAnnotation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ADD ANNOTATION '%s' ON %s", s.Text, s.Table)
	if len(s.Columns) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(s.Columns, ", "))
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	return b.String()
}

// String implements Statement.
func (s *CreateSummaryInstance) String() string {
	return fmt.Sprintf("CREATE SUMMARY INSTANCE %s TYPE %s", s.Name, s.Type)
}

// String implements Statement.
func (s *DropSummaryInstance) String() string { return "DROP SUMMARY INSTANCE " + s.Name }

// String implements Statement.
func (s *TrainSummary) String() string {
	return fmt.Sprintf("TRAIN SUMMARY %s (%d samples)", s.Name, len(s.Samples))
}

// String implements Statement.
func (s *LinkSummary) String() string {
	if s.Unlink {
		return fmt.Sprintf("UNLINK SUMMARY %s FROM %s", s.Instance, s.Table)
	}
	return fmt.Sprintf("LINK SUMMARY %s TO %s", s.Instance, s.Table)
}

// String implements Statement.
func (s *ZoomIn) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ZOOMIN REFERENCE QID %d", s.QID)
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	fmt.Fprintf(&b, " ON %s INDEX %d", s.Instance, s.Index)
	return b.String()
}

// String implements Statement.
func (s *Show) String() string {
	switch {
	case s.What == "ANNOTATIONS":
		return "SHOW ANNOTATIONS ON " + s.Table
	case s.What == "METRICS" && s.Pattern != "":
		return "SHOW METRICS LIKE '" + s.Pattern + "'"
	case s.What == "TRACES" && s.Limit > 0:
		return fmt.Sprintf("SHOW TRACES LIMIT %d", s.Limit)
	case s.What == "TRACE":
		return "SHOW TRACE " + s.TraceID
	}
	return "SHOW " + s.What
}
