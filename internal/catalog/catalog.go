package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// Catalog is the engine's metadata root: tables, summary instances, and
// instance↔relation links.
type Catalog struct {
	mu        sync.RWMutex
	tables    map[string]*Table            // lower(name) → table
	instances map[string]*summary.Instance // instance name → instance
	links     map[string]map[string]bool   // lower(table) → instance names
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:    make(map[string]*Table),
		instances: make(map[string]*summary.Instance),
		links:     make(map[string]map[string]bool),
	}
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable registers a new relation. Column Table qualifiers are forced
// to the relation name. Relations are limited to 64 columns (the ColSet
// width).
func (c *Catalog) CreateTable(name string, schema types.Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: table name required")
	}
	if schema.Len() == 0 {
		return nil, fmt.Errorf("catalog: table %s needs at least one column", name)
	}
	if schema.Len() > 64 {
		return nil, fmt.Errorf("catalog: table %s has %d columns; the engine supports 64", name, schema.Len())
	}
	seen := map[string]bool{}
	for _, col := range schema.Columns {
		if col.Name == "" {
			return nil, fmt.Errorf("catalog: table %s has an unnamed column", name)
		}
		switch col.Kind {
		case types.KindInt, types.KindFloat, types.KindString, types.KindBool:
		default:
			return nil, fmt.Errorf("catalog: column %s.%s has invalid type %d", name, col.Name, col.Kind)
		}
		lc := key(col.Name)
		if seen[lc] {
			return nil, fmt.Errorf("catalog: duplicate column %s in table %s", col.Name, name)
		}
		seen[lc] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[key(name)]; dup {
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	tbl := newTable(name, schema.WithTable(name))
	c.tables[key(name)] = tbl
	return tbl, nil
}

// Table resolves a relation by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tbl, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return tbl, nil
}

// DropTable removes a relation and its links.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(name)]; !ok {
		return fmt.Errorf("catalog: no table %q", name)
	}
	delete(c.tables, key(name))
	delete(c.links, key(name))
	return nil
}

// TableNames returns all relation names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}

// RegisterInstance adds a summary instance to the catalog.
func (c *Catalog) RegisterInstance(in *summary.Instance) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.instances[in.Name]; dup {
		return fmt.Errorf("catalog: summary instance %q already exists", in.Name)
	}
	c.instances[in.Name] = in
	return nil
}

// Instance resolves a summary instance by name.
func (c *Catalog) Instance(name string) (*summary.Instance, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	in, ok := c.instances[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no summary instance %q", name)
	}
	return in, nil
}

// DropInstance removes an instance and all its links.
func (c *Catalog) DropInstance(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.instances[name]; !ok {
		return fmt.Errorf("catalog: no summary instance %q", name)
	}
	delete(c.instances, name)
	for _, set := range c.links {
		delete(set, name)
	}
	return nil
}

// InstanceNames returns all instance names, sorted.
func (c *Catalog) InstanceNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.instances))
	for n := range c.instances {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Link attaches instance to table (many-to-many, Figure 4). Both must
// exist; duplicate links are errors so callers notice configuration drift.
func (c *Catalog) Link(instance, table string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.instances[instance]; !ok {
		return fmt.Errorf("catalog: no summary instance %q", instance)
	}
	if _, ok := c.tables[key(table)]; !ok {
		return fmt.Errorf("catalog: no table %q", table)
	}
	set, ok := c.links[key(table)]
	if !ok {
		set = make(map[string]bool)
		c.links[key(table)] = set
	}
	if set[instance] {
		return fmt.Errorf("catalog: instance %q already linked to %s", instance, table)
	}
	set[instance] = true
	return nil
}

// Unlink detaches instance from table.
func (c *Catalog) Unlink(instance, table string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.links[key(table)]
	if !set[instance] {
		return fmt.Errorf("catalog: instance %q is not linked to %s", instance, table)
	}
	delete(set, instance)
	return nil
}

// InstancesFor returns the instances linked to table, sorted by name.
func (c *Catalog) InstancesFor(table string) []*summary.Instance {
	c.mu.RLock()
	defer c.mu.RUnlock()
	set := c.links[key(table)]
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*summary.Instance, 0, len(names))
	for _, n := range names {
		out = append(out, c.instances[n])
	}
	return out
}

// TablesFor returns the table names an instance is linked to, sorted.
func (c *Catalog) TablesFor(instance string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for tbl, set := range c.links {
		if set[instance] {
			out = append(out, c.tables[tbl].name)
		}
	}
	sort.Strings(out)
	return out
}

// IsLinked reports whether instance is linked to table.
func (c *Catalog) IsLinked(instance, table string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.links[key(table)][instance]
}
