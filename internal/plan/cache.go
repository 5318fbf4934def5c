// Plan cache. Repeated statements — the prepared-statement workload —
// pay lexing, parsing, and cost-based access-path selection on every
// execution even though nothing about the statement changed. The cache
// keys on normalized SQL text and stores the immutable parsed template
// plus a PathMemo of the planner's access-path decisions, so a hit skips
// both the front end and the B+tree index dives of cost estimation.
// Operator trees are NOT cached: they are stateful per execution and
// embed bound parameter values, so each EXECUTE still instantiates its
// own plan from the shared template.
//
// Staleness: a memoized access path is only as good as the catalog it
// was chosen against, so the engine drops the whole cache on DDL and on
// index create/drop (see DB.invalidatePlanCache). Within a statement's
// lifetime the memo is append-only and safe for concurrent planners.
package plan

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"insightnotes/internal/sql"
)

// DefaultCacheSize bounds the plan cache when the engine config leaves
// it unset.
const DefaultCacheSize = 256

// CachedPlan is one plan-cache entry: the parsed statement template
// (immutable — EXECUTE binds parameters into a clone, never in place),
// its placeholder count, and the memoized planner decisions.
type CachedPlan struct {
	Stmt      sql.Statement
	NumParams int
	Memo      *PathMemo
}

// CacheStats is a point-in-time snapshot of the cache's counters, the
// source for the insightnotes_plancache_* metrics.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Cache is a bounded LRU of CachedPlans keyed on normalized SQL.
// Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recent; values are *cacheNode
	entries map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheNode struct {
	key  string
	plan *CachedPlan
}

// NewCache builds a cache bounded to capacity entries (DefaultCacheSize
// when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached plan for key, counting a hit or miss.
func (c *Cache) Get(key string) (*CachedPlan, bool) {
	var p *CachedPlan
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
		p = el.Value.(*cacheNode).plan // Put may replace it once unlocked
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return p, true
}

// Contains reports whether key is cached without counting a hit or miss
// (and without refreshing its recency).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	return ok
}

// Put inserts (or refreshes) the plan under key, evicting the least
// recently used entry past capacity.
func (c *Cache) Put(key string, p *CachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheNode).plan = p
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheNode{key: key, plan: p})
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cacheNode).key)
		c.evictions.Add(1)
	}
}

// Invalidate drops every entry. Called on DDL and index create/drop:
// cached templates may name dropped objects and memoized access paths
// may reference created/dropped indexes, so the whole cache goes — the
// next execution of each statement re-parses and re-costs honestly.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.lru.Init()
	c.entries = make(map[string]*list.Element)
	c.mu.Unlock()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// NormalizeSQL canonicalizes statement text for cache keying: whitespace
// runs (spaces, tabs, newlines) collapse to one space, leading/trailing
// whitespace and trailing semicolons are trimmed. Case is preserved —
// string literals are case-significant, and over-normalizing risks
// aliasing distinct statements.
func NormalizeSQL(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteByte(c)
	}
	out := b.String()
	for strings.HasSuffix(out, ";") {
		out = strings.TrimRight(strings.TrimSuffix(out, ";"), " ")
	}
	return out
}

// ---- access-path memoization ----

// pathChoice records one relation's chosen access path. For index paths
// the column and row estimate are kept so a replay can rebuild the same
// operator without re-diving the B+tree; the probe values always come
// from the current (bound) predicate, never from the memo.
type pathChoice struct {
	kind string // "full", "index", "index_range"
	col  string
	est  int
}

// PathMemo memoizes access-path decisions per relation alias across
// executions of one cached statement. The first planning run records its
// choices; later runs replay them, skipping cost estimation. Like
// PostgreSQL's generic plans, the memoized choice is made once against
// the first execution's parameter values — the trade accepted for
// skipping per-execution index dives — and is discarded wholesale with
// the cache entry on any DDL or index change.
type PathMemo struct {
	mu    sync.Mutex
	paths map[string]pathChoice
}

// NewPathMemo builds an empty memo.
func NewPathMemo() *PathMemo { return &PathMemo{paths: make(map[string]pathChoice)} }

// lookup and record tolerate a nil memo (uncached statements): nothing is
// found and nothing is kept.
func (m *PathMemo) lookup(alias string) (pathChoice, bool) {
	if m == nil {
		return pathChoice{}, false
	}
	m.mu.Lock()
	c, ok := m.paths[alias]
	m.mu.Unlock()
	return c, ok
}

func (m *PathMemo) record(alias string, c pathChoice) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if _, dup := m.paths[alias]; !dup {
		m.paths[alias] = c
	}
	m.mu.Unlock()
}
