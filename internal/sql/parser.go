package sql

import (
	"fmt"
	"strconv"
	"strings"

	"insightnotes/internal/types"
)

// Parser consumes a token stream into statements.
type Parser struct {
	src  string
	toks []Token
	pos  int
}

// Parse parses a single statement (a trailing semicolon is optional).
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(src string) ([]Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{src: src, toks: toks}
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().Kind == TokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().Kind != TokEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sql: empty input")
	}
	return stmts, nil
}

// ---- token helpers ----

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// isKeyword reports whether the current token is the given keyword.
func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *Parser) acceptOp(op string) bool {
	t := p.peek()
	if t.Kind == TokOp && t.Text == op {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

// expectIdent consumes a non-keyword identifier.
func (p *Parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.Kind != TokIdent || IsKeyword(t.Text) {
		return "", p.errf("expected %s", what)
	}
	p.advance()
	return t.Text, nil
}

// expectString consumes a string literal.
func (p *Parser) expectString(what string) (string, error) {
	t := p.peek()
	if t.Kind != TokString {
		return "", p.errf("expected %s (a 'string')", what)
	}
	p.advance()
	return t.Text, nil
}

// expectInt consumes an integer literal.
func (p *Parser) expectInt(what string) (int, error) {
	t := p.peek()
	if t.Kind != TokNumber || strings.Contains(t.Text, ".") {
		return 0, p.errf("expected %s (an integer)", what)
	}
	p.advance()
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	return n, nil
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.peek()
	loc := fmt.Sprintf("position %d", t.Pos)
	if t.Kind == TokEOF {
		loc = "end of input"
	}
	got := t.Text
	if got == "" {
		got = "<eof>"
	}
	return fmt.Errorf("sql: %s at %s (got %q)", fmt.Sprintf(format, args...), loc, got)
}

// ---- statements ----

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("EXPLAIN"):
		p.advance()
		analyze := p.acceptKeyword("ANALYZE")
		if !p.isKeyword("SELECT") {
			return nil, p.errf("EXPLAIN supports [ANALYZE] SELECT statements")
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel.(*Select), Analyze: analyze}, nil
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("INSERT"), p.isKeyword("BULK"):
		return p.parseInsert()
	case p.isKeyword("PREPARE"):
		return p.parsePrepare()
	case p.isKeyword("EXECUTE"):
		return p.parseExecute()
	case p.isKeyword("DEALLOCATE"):
		return p.parseDeallocate()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("ADD"):
		return p.parseAddAnnotation()
	case p.isKeyword("TRAIN"):
		return p.parseTrainSummary()
	case p.isKeyword("LINK"), p.isKeyword("UNLINK"):
		return p.parseLinkSummary()
	case p.isKeyword("ZOOMIN"):
		return p.parseZoomIn()
	case p.isKeyword("SHOW"):
		return p.parseShow()
	case p.isKeyword("CHECKPOINT"):
		p.advance()
		return &Checkpoint{}, nil
	case p.isKeyword("CHECK"):
		p.advance()
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		return &CheckTable{Table: name}, nil
	default:
		return nil, p.errf("expected a statement")
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex()
	case p.acceptKeyword("SUMMARY"):
		if err := p.expectKeyword("INSTANCE"); err != nil {
			return nil, err
		}
		return p.parseCreateSummaryInstance()
	default:
		return nil, p.errf("expected TABLE, INDEX, or SUMMARY INSTANCE after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cname, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		t := p.peek()
		if t.Kind != TokIdent {
			return nil, p.errf("expected column type")
		}
		kind, err := types.KindFromName(t.Text)
		if err != nil {
			return nil, p.errf("unknown column type %q", t.Text)
		}
		p.advance()
		cols = append(cols, ColumnDef{Name: cname, Kind: kind})
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		break
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

func (p *Parser) parseCreateIndex() (Statement, error) {
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent("column name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Table: table, Column: col}, nil
}

func (p *Parser) parseCreateSummaryInstance() (Statement, error) {
	name, err := p.expectIdent("instance name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TYPE"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errf("expected summary type name")
	}
	p.advance()
	stmt := &CreateSummaryInstance{Name: name, Type: t.Text, Options: map[string]types.Value{}}
	for {
		switch {
		case p.acceptKeyword("WITH"):
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				k, err := p.expectIdent("option name")
				if err != nil {
					return nil, err
				}
				if err := p.expectOp("="); err != nil {
					return nil, err
				}
				v, err := p.parseLiteralValue()
				if err != nil {
					return nil, err
				}
				stmt.Options[strings.ToLower(k)] = v
				if p.acceptOp(",") {
					continue
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				break
			}
		case p.acceptKeyword("LABELS"):
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				l, err := p.expectString("class label")
				if err != nil {
					return nil, err
				}
				stmt.Labels = append(stmt.Labels, l)
				if p.acceptOp(",") {
					continue
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				break
			}
		default:
			return stmt, nil
		}
	}
}

// parseLiteralValue parses a bare literal (number, string, TRUE/FALSE/NULL)
// used in WITH options and VALUES rows via parseExpr's literal path.
func (p *Parser) parseLiteralValue() (types.Value, error) {
	t := p.peek()
	switch {
	case t.Kind == TokString:
		p.advance()
		return types.NewString(t.Text), nil
	case t.Kind == TokNumber:
		p.advance()
		return numberValue(t.Text)
	case p.acceptKeyword("TRUE"):
		return types.NewBool(true), nil
	case p.acceptKeyword("FALSE"):
		return types.NewBool(false), nil
	case p.acceptKeyword("NULL"):
		return types.Null(), nil
	case t.Kind == TokOp && t.Text == "-":
		p.advance()
		n := p.peek()
		if n.Kind != TokNumber {
			return types.Value{}, p.errf("expected number after '-'")
		}
		p.advance()
		v, err := numberValue(n.Text)
		if err != nil {
			return types.Value{}, err
		}
		if v.Kind() == types.KindInt {
			return types.NewInt(-v.Int()), nil
		}
		return types.NewFloat(-v.Float()), nil
	default:
		return types.Value{}, p.errf("expected a literal value")
	}
}

func numberValue(text string) (types.Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("sql: bad number %q", text)
		}
		return types.NewFloat(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return types.Value{}, fmt.Errorf("sql: bad number %q", text)
	}
	return types.NewInt(n), nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &Update{Table: table}
	for {
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, SetClause{Column: col, Value: val})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	switch {
	case p.acceptKeyword("ANNOTATION"):
		id, err := p.expectInt("annotation id")
		if err != nil {
			return nil, err
		}
		return &DropAnnotation{ID: id}, nil
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.acceptKeyword("SUMMARY"):
		if err := p.expectKeyword("INSTANCE"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent("instance name")
		if err != nil {
			return nil, err
		}
		return &DropSummaryInstance{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE, ANNOTATION, or SUMMARY INSTANCE after DROP")
	}
}

// parseInsert parses [BULK] INSERT INTO table VALUES (...), (...).
func (p *Parser) parseInsert() (Statement, error) {
	s := &Insert{Bulk: p.acceptKeyword("BULK")}
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	var err error
	if s.Table, err = p.expectIdent("table name"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
		s.Rows = append(s.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return s, nil
}

// parsePrepare parses PREPARE name AS <statement>. The template's SQL
// text (everything after AS) is captured verbatim for plan-cache keying.
func (p *Parser) parsePrepare() (Statement, error) {
	p.advance() // PREPARE
	name, err := p.expectIdent("prepared-statement name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	start := p.peek().Pos - 1
	if start < 0 || start > len(p.src) {
		start = len(p.src)
	}
	switch {
	case p.isKeyword("PREPARE"):
		return nil, p.errf("PREPARE cannot nest")
	case p.isKeyword("EXECUTE"), p.isKeyword("DEALLOCATE"):
		return nil, p.errf("cannot prepare %s", strings.ToUpper(p.peek().Text))
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	end := len(p.src)
	if t := p.peek(); t.Kind != TokEOF && t.Pos-1 >= start && t.Pos-1 <= len(p.src) {
		end = t.Pos - 1
	}
	text := strings.TrimSpace(p.src[start:end])
	return &Prepare{Name: name, Stmt: stmt, Text: text}, nil
}

// parseExecute parses EXECUTE name [USING expr, ...], also accepting the
// parenthesized EXECUTE name (expr, ...) form.
func (p *Parser) parseExecute() (Statement, error) {
	p.advance() // EXECUTE
	name, err := p.expectIdent("prepared-statement name")
	if err != nil {
		return nil, err
	}
	stmt := &Execute{Name: name}
	paren := false
	switch {
	case p.acceptKeyword("USING"):
	case p.acceptOp("("):
		paren = true
		if p.acceptOp(")") {
			return stmt, nil
		}
	default:
		return stmt, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Args = append(stmt.Args, e)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if paren {
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// parseDeallocate parses DEALLOCATE [PREPARE] name.
func (p *Parser) parseDeallocate() (Statement, error) {
	p.advance() // DEALLOCATE
	p.acceptKeyword("PREPARE")
	name, err := p.expectIdent("prepared-statement name")
	if err != nil {
		return nil, err
	}
	return &Deallocate{Name: name}, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	p.advance() // SELECT
	s := &Select{Limit: -1}
	s.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if !p.acceptOp(",") {
			break
		}
	}
	for p.acceptKeyword("INNER") || p.isKeyword("JOIN") {
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, JoinClause{Ref: ref, On: cond})
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectInt("limit")
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	t := p.peek()
	if t.Kind == TokIdent && !IsKeyword(t.Text) &&
		p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		p.pos += 3
		return SelectItem{Star: true, StarTable: t.Text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent("alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.peek(); t.Kind == TokIdent && !IsKeyword(t.Text) {
		p.advance()
		item.Alias = t.Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent("table name")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent("alias")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a
	} else if t := p.peek(); t.Kind == TokIdent && !IsKeyword(t.Text) {
		p.advance()
		ref.Alias = t.Text
	}
	return ref, nil
}

func (p *Parser) parseAddAnnotation() (Statement, error) {
	p.advance() // ADD
	if err := p.expectKeyword("ANNOTATION"); err != nil {
		return nil, err
	}
	text, err := p.expectString("annotation text")
	if err != nil {
		return nil, err
	}
	stmt := &AddAnnotation{Text: text}
	for {
		switch {
		case p.acceptKeyword("TITLE"):
			if stmt.Title, err = p.expectString("title"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("DOCUMENT"):
			if stmt.Document, err = p.expectString("document"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("AUTHOR"):
			if stmt.Author, err = p.expectString("author"); err != nil {
				return nil, err
			}
		default:
			goto on
		}
	}
on:
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if stmt.Table, err = p.expectIdent("table name"); err != nil {
		return nil, err
	}
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, c)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *Parser) parseTrainSummary() (Statement, error) {
	p.advance() // TRAIN
	if err := p.expectKeyword("SUMMARY"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("instance name")
	if err != nil {
		return nil, err
	}
	stmt := &TrainSummary{Name: name}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		text, err := p.expectString("sample text")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(","); err != nil {
			return nil, err
		}
		label, err := p.expectString("class label")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Samples = append(stmt.Samples, [2]string{text, label})
		if !p.acceptOp(",") {
			break
		}
	}
	return stmt, nil
}

func (p *Parser) parseLinkSummary() (Statement, error) {
	unlink := p.isKeyword("UNLINK")
	p.advance() // LINK or UNLINK
	if err := p.expectKeyword("SUMMARY"); err != nil {
		return nil, err
	}
	inst, err := p.expectIdent("instance name")
	if err != nil {
		return nil, err
	}
	if unlink {
		if err := p.expectKeyword("FROM"); err != nil {
			return nil, err
		}
	} else {
		if err := p.expectKeyword("TO"); err != nil {
			return nil, err
		}
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	return &LinkSummary{Instance: inst, Table: table, Unlink: unlink}, nil
}

func (p *Parser) parseZoomIn() (Statement, error) {
	p.advance() // ZOOMIN
	if err := p.expectKeyword("REFERENCE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("QID"); err != nil {
		return nil, err
	}
	// Accept both "QID 101" and "QID = 101".
	p.acceptOp("=")
	qid, err := p.expectInt("query id")
	if err != nil {
		return nil, err
	}
	stmt := &ZoomIn{QID: qid}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if stmt.Instance, err = p.expectIdent("summary instance name"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	if stmt.Index, err = p.expectInt("element index"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseShow() (Statement, error) {
	p.advance() // SHOW
	switch {
	case p.acceptKeyword("TABLES"):
		return &Show{What: "TABLES"}, nil
	case p.acceptKeyword("SUMMARIES"):
		return &Show{What: "SUMMARIES"}, nil
	case p.acceptKeyword("ANNOTATIONS"):
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		return &Show{What: "ANNOTATIONS", Table: table}, nil
	case p.acceptKeyword("METRICS"):
		s := &Show{What: "METRICS"}
		if p.acceptKeyword("LIKE") {
			pattern, err := p.expectString("metric name pattern")
			if err != nil {
				return nil, err
			}
			s.Pattern = pattern
		}
		return s, nil
	case p.acceptKeyword("TRACES"):
		s := &Show{What: "TRACES"}
		if p.acceptKeyword("LIMIT") {
			n, err := p.expectInt("trace limit")
			if err != nil {
				return nil, err
			}
			s.Limit = n
		}
		return s, nil
	case p.acceptKeyword("TRACE"):
		// Trace ids ("t" + 16 hex digits) lex as ordinary identifiers.
		id, err := p.expectIdent("trace id")
		if err != nil {
			return nil, err
		}
		return &Show{What: "TRACE", TraceID: id}, nil
	case p.acceptKeyword("INTEGRITY"):
		return &Show{What: "INTEGRITY"}, nil
	default:
		return nil, p.errf("expected TABLES, SUMMARIES, ANNOTATIONS, METRICS, TRACES, TRACE, or INTEGRITY after SHOW")
	}
}

// ---- expressions (precedence climbing) ----

// parseExpr parses OR-level expressions.
func (p *Parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: left, Negate: neg}, nil
	}
	if p.acceptKeyword("LIKE") {
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "LIKE", L: left, R: right}, nil
	}
	// Postfix [NOT] IN / [NOT] BETWEEN.
	negate := false
	if p.isKeyword("NOT") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokIdent &&
		(strings.EqualFold(p.toks[p.pos+1].Text, "IN") || strings.EqualFold(p.toks[p.pos+1].Text, "BETWEEN")) {
		p.advance()
		negate = true
	}
	if p.acceptKeyword("IN") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{X: left, Negate: negate}
		for {
			item, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, item)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
		return in, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi, Negate: negate}, nil
	}
	if negate {
		return nil, p.errf("expected IN or BETWEEN after NOT")
	}
	for _, op := range []string{"<>", "!=", "<=", ">=", "=", "<", ">"} {
		if p.acceptOp(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			normalized := op
			if op == "!=" {
				normalized = "<>"
			}
			return &BinaryExpr{Op: normalized, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "+", L: left, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "-", L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "*", L: left, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "/", L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

// aggregateFuncs are the supported aggregate names.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// summaryFuncs are the summary-based predicate functions of §2.1.
var summaryFuncs = map[string]bool{
	"SUMMARY_COUNT": true, "SUMMARY_TOTAL": true, "SUMMARY_GROUPS": true,
}

// parseSummaryCall parses SUMMARY_COUNT(instance, 'Label'),
// SUMMARY_TOTAL(instance), or SUMMARY_GROUPS(instance). The leading
// function name token has been peeked but not consumed.
func (p *Parser) parseSummaryCall(fn string) (Expr, error) {
	p.advance()
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	inst, err := p.expectIdent("summary instance name")
	if err != nil {
		return nil, err
	}
	call := &SummaryCall{Func: fn, Instance: inst}
	if fn == "SUMMARY_COUNT" {
		if err := p.expectOp(","); err != nil {
			return nil, err
		}
		if call.Label, err = p.expectString("class label"); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		v, err := numberValue(t.Text)
		if err != nil {
			return nil, err
		}
		return &Literal{Val: v}, nil
	case t.Kind == TokString:
		p.advance()
		return &Literal{Val: types.NewString(t.Text)}, nil
	case t.Kind == TokParam:
		p.advance()
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 {
			return nil, p.errf("bad parameter number $%s", t.Text)
		}
		return &Param{Index: n}, nil
	case p.acceptKeyword("TRUE"):
		return &Literal{Val: types.NewBool(true)}, nil
	case p.acceptKeyword("FALSE"):
		return &Literal{Val: types.NewBool(false)}, nil
	case p.acceptKeyword("NULL"):
		return &Literal{Val: types.Null()}, nil
	case t.Kind == TokOp && t.Text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		upper := strings.ToUpper(t.Text)
		if summaryFuncs[upper] {
			return p.parseSummaryCall(upper)
		}
		if aggregateFuncs[upper] {
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			if upper == "COUNT" && p.acceptOp("*") {
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &FuncCall{Name: "COUNT", Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: upper, Arg: arg}, nil
		}
		if IsKeyword(t.Text) {
			return nil, p.errf("unexpected keyword %q in expression", t.Text)
		}
		p.advance()
		name := t.Text
		// Qualified reference t.col.
		if p.acceptOp(".") {
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			name = name + "." + col
		}
		return &ColRef{Name: name}, nil
	default:
		return nil, p.errf("expected an expression")
	}
}
