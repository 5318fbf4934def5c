package types

import (
	"fmt"
	"strings"
)

// RowID identifies a tuple within a relation. IDs are assigned by the
// storage layer and are stable for the lifetime of the tuple; annotations
// reference tuples by RowID.
type RowID uint64

// Column describes one attribute of a relation.
type Column struct {
	// Table is the (possibly aliased) relation the column belongs to. It is
	// used to resolve qualified references such as "r.a".
	Table string
	// Name is the attribute name.
	Name string
	// Kind is the attribute type.
	Kind Kind
}

// QualifiedName returns "table.name", or just the name when the column has
// no table qualifier.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing a tuple shape.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Columns) }

// ColumnIndex resolves a column reference that may be qualified ("r.a") or
// bare ("a"). A bare reference that matches more than one column is
// ambiguous and returns an error; a reference that matches nothing returns
// an error as well.
func (s Schema) ColumnIndex(ref string) (int, error) {
	table, name := SplitQualified(ref)
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("types: ambiguous column reference %q", ref)
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("types: unknown column %q", ref)
	}
	return found, nil
}

// Project returns a schema containing the columns at the given indexes, in
// order.
func (s Schema) Project(idxs []int) Schema {
	cols := make([]Column, len(idxs))
	for i, ix := range idxs {
		cols[i] = s.Columns[ix]
	}
	return Schema{Columns: cols}
}

// Concat returns the schema of the concatenation of tuples of s and t
// (as produced by a join).
func (s Schema) Concat(t Schema) Schema {
	cols := make([]Column, 0, len(s.Columns)+len(t.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, t.Columns...)
	return Schema{Columns: cols}
}

// WithTable returns a copy of the schema with every column's Table set to
// alias. Used when a relation is scanned under an alias.
func (s Schema) WithTable(alias string) Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	for i := range cols {
		cols[i].Table = alias
	}
	return Schema{Columns: cols}
}

// String renders the schema as "(t.a INT, t.b TEXT)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// SplitQualified splits "t.a" into ("t", "a"); a bare name yields ("", name).
func SplitQualified(ref string) (table, name string) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}

// Tuple is a row of values. Tuples are positional; their shape is described
// by a Schema held alongside them by whichever operator produced them.
type Tuple []Value

// Clone returns a copy of the tuple that shares no backing array with t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Project returns a new tuple containing the values at idxs, in order.
func (t Tuple) Project(idxs []int) Tuple {
	out := make(Tuple, len(idxs))
	for i, ix := range idxs {
		out[i] = t[ix]
	}
	return out
}

// Concat returns the concatenation of t and u as a new tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// Hash returns a combined hash of the values at idxs (all values when idxs
// is nil), suitable for hash joins and DISTINCT.
func (t Tuple) Hash(idxs []int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v Value) {
		h ^= v.Hash()
		h *= prime
	}
	if idxs == nil {
		for _, v := range t {
			mix(v)
		}
		return h
	}
	for _, ix := range idxs {
		mix(t[ix])
	}
	return h
}

// EqualOn reports whether t and u agree on the projection idxs (nil means
// all positions; the tuples must then have equal length).
func (t Tuple) EqualOn(u Tuple, idxs []int) bool {
	if idxs == nil {
		if len(t) != len(u) {
			return false
		}
		for i := range t {
			if !Equal(t[i], u[i]) {
				return false
			}
		}
		return true
	}
	for _, ix := range idxs {
		if !Equal(t[ix], u[ix]) {
			return false
		}
	}
	return true
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
