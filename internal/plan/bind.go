package plan

import (
	"fmt"
	"math/bits"
	"strings"

	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// Name binding. bind decides once per statement what every column name
// means — one column of one FROM or JOIN relation — and is the one place
// that reports an unknown or ambiguous name. The planner reads only its
// answers: conjuncts are placed by the set of relations they read, join
// keys are split by the sets of the two sides, projection pushdown keeps
// the columns bind marked, and grouping matches keys by bound column, so
// neither a plan option nor a spelling can change what a name refers to.

// relSet is a set of a statement's relations: bit i stands for rels[i].
type relSet uint64

// column is what a bound name refers to: ordinal ord of rels[rel].schema.
type column struct{ rel, ord int }

// conjunct is one WHERE or ON conjunct and the relations it reads.
type conjunct struct {
	e       sql.Expr
	rels    relSet
	summary bool // it reads summary envelopes (§2.1)
}

// scanned reports whether an access path absorbs c: a column predicate
// that reads exactly one relation.
func (c conjunct) scanned() bool {
	return !c.summary && bits.OnesCount64(uint64(c.rels)) == 1
}

// within reports whether s is a non-empty subset of t.
func within(s, t relSet) bool { return s != 0 && s&^t == 0 }

// binding is bind's answer for one statement.
type binding struct {
	rels []*relation
	cols map[*sql.ColRef]column
}

// bind resolves the column names of a statement over rels: the
// star-expanded items, the WHERE and ON conjuncts in where, and GROUP BY,
// HAVING and ORDER BY of s (nil for a mutation's WHERE). A name in the
// first three must match exactly one column of one relation. HAVING and
// ORDER BY may also name output columns and aliases, so a name there that
// matches no single column is left for the aggregation rewrite and the
// sort to check. Every bound column read above the scans is marked in its
// relation's needed: all but those of the conjuncts an access path
// absorbs.
func bind(rels []*relation, items []sql.SelectItem, where []sql.Expr, s *sql.Select) (*binding, []conjunct, error) {
	if len(rels) > 64 {
		return nil, nil, fmt.Errorf("plan: more than 64 relations")
	}
	b := &binding{rels: rels, cols: make(map[*sql.ColRef]column)}
	all := rels[0].schema
	for _, r := range rels[1:] {
		all = all.Concat(r.schema)
	}
	var err error
	// resolve binds the names in e and returns the relations e reads and
	// whether it reads summaries; it marks what it binds when mark is set.
	resolve := func(e sql.Expr, strict, mark bool) (set relSet, summary bool) {
		sql.Walk(e, func(e sql.Expr) bool {
			if err != nil {
				return false
			}
			switch x := e.(type) {
			case *sql.SummaryCall:
				summary = true
			case *sql.ColRef:
				ix, rerr := all.ColumnIndex(x.Name)
				if rerr != nil {
					if strict {
						err = rerr
					}
					break
				}
				c := column{ord: ix}
				for c.ord >= rels[c.rel].schema.Len() {
					c.ord -= rels[c.rel].schema.Len()
					c.rel++
				}
				b.cols[x] = c
				set |= 1 << c.rel
				if mark {
					rels[c.rel].mark(c.ord)
				}
			}
			return err == nil
		})
		return set, summary
	}
	for _, it := range items {
		if resolve(it.Expr, true, true); err != nil {
			return nil, nil, err
		}
	}
	conj := make([]conjunct, len(where))
	for i, e := range where {
		conj[i].e = e
		if conj[i].rels, conj[i].summary = resolve(e, true, false); err != nil {
			return nil, nil, err
		}
		if !conj[i].scanned() {
			b.each(e, func(x column) { rels[x.rel].mark(x.ord) })
		}
	}
	if s == nil {
		return b, conj, nil
	}
	for _, g := range s.GroupBy {
		if resolve(g, true, true); err != nil {
			return nil, nil, err
		}
	}
	resolve(s.Having, false, true)
	for _, o := range s.OrderBy {
		resolve(o.Expr, false, true)
	}
	return b, conj, nil
}

// each calls fn with the column of every bound name in e.
func (b *binding) each(e sql.Expr, fn func(column)) {
	sql.Walk(e, func(e sql.Expr) bool {
		if c, ok := e.(*sql.ColRef); ok {
			if x, ok := b.cols[c]; ok {
				fn(x)
			}
		}
		return true
	})
}

// set returns the relations e reads.
func (b *binding) set(e sql.Expr) relSet {
	var s relSet
	b.each(e, func(x column) { s |= 1 << x.rel })
	return s
}

// column returns the column c is bound to.
func (b *binding) column(c *sql.ColRef) (types.Column, bool) {
	x, ok := b.cols[c]
	if !ok {
		return types.Column{}, false
	}
	return b.rels[x.rel].schema.Columns[x.ord], true
}

// key is e's text with every bound name spelled as its relation-qualified
// column, lower-cased, so two spellings of one expression ("b", "R.b")
// share a key: grouping and aggregate collection compare by it.
func (b *binding) key(e sql.Expr) string {
	if b.set(e) != 0 {
		e, _ = sql.Rewrite(e, func(e sql.Expr) (sql.Expr, bool, error) {
			c, ok := e.(*sql.ColRef)
			if !ok {
				return nil, false, nil
			}
			if col, ok := b.column(c); ok {
				return &sql.ColRef{Name: col.QualifiedName()}, true, nil
			}
			return c, true, nil
		})
	}
	return strings.ToLower(e.String())
}
