package zoomin

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// spillName is the one file under the cache directory that holds every
// materialized result.
const spillName = "zoomin.spill"

// registrySize is how many of the most recent QIDs keep their SQL text for
// re-execution on a miss.
const registrySize = 1 << 16

// ErrQIDExpired reports a zoom-in on a QID that is neither resident nor
// among the registrySize most recent ones: its SQL text is gone.
var ErrQIDExpired = errors.New("expired from the zoom-in registry")

// entryMeta is the bookkeeping of one resident result: where its bytes lie
// in the spill file and what the replacement policies score.
type entryMeta struct {
	QID        int
	Size       int64
	Complexity float64
	LastRef    int64 // logical clock of the last reference
	RefCount   int
	off        int64 // offset of the encoded result in the spill file
}

// Policy gives every resident entry a retention value; under pressure the
// cache evicts in ascending order of it.
type Policy interface {
	// Name identifies the policy in benchmark output.
	Name() string
	// Score is m's retention value at the given logical clock.
	Score(m *entryMeta, clock int64) float64
}

// RCO is the paper's replacement policy: Recency, Complexity, and Overhead.
// An entry's retention value grows with the cost of recreating it (query
// complexity), how often and how recently zoom-ins referenced it, and
// shrinks with the disk space it occupies. The entry with the lowest value
// is evicted.
type RCO struct{}

// Name implements Policy.
func (RCO) Name() string { return "RCO" }

// Score implements Policy: recency × frequency × recreation cost / size.
func (RCO) Score(m *entryMeta, clock int64) float64 {
	return float64(1+m.RefCount) * m.Complexity / (float64(1+clock-m.LastRef) * float64(max(m.Size, 1)))
}

// LRU is the baseline policy: evict the least recently referenced entry.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "LRU" }

// Score implements Policy.
func (LRU) Score(m *entryMeta, _ int64) float64 { return float64(m.LastRef) }

// CacheStats reports cache effectiveness for the E6 benchmarks and the
// metrics registry's function-backed collectors.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Puts counts results admitted into the cache.
	Puts int64
	// Rejected counts results that were not admitted: larger than the whole
	// budget, or lost to a spill-file I/O failure. Either way the query is
	// re-executed on demand instead.
	Rejected  int64
	UsedBytes int64
	Entries   int
}

// Cache is the limited disk-based materialization cache for query results.
// Every result is one extent of a single spill file, written once at the
// tail; the resident set is an in-memory index over those extents, and the
// extents compete for a byte budget under the configured replacement
// policy. Evicting or replacing an entry only edits the index — its bytes
// go dead in place — and compact reclaims dead bytes once the file has
// grown past twice the budget. The cache also remembers the SQL text of
// the most recent QIDs, so a zoom-in on an evicted result can re-execute.
type Cache struct {
	mu     sync.Mutex
	budget int64
	policy Policy

	spillPath string
	spill     *os.File
	tail      int64 // next write offset: live plus dead bytes

	entries []entryMeta // the resident set, unordered
	index   map[int]int // QID → position in entries
	used    int64       // live bytes
	clock   int64
	stats   CacheStats
	victims []victim // evict's scratch heap, reused between passes

	// registry is a ring indexed by QID: slot qid % registrySize holds the
	// newest QID that maps to it.
	registry []registered
}

type registered struct {
	qid int
	sql string
}

// victim is one eviction candidate in evict's heap, ordered by score and,
// among equal scores, by QID.
type victim struct {
	score float64
	qid   int
}

// NewCache creates a cache spilling into one file under dir with the given
// byte budget and policy. The directory is created if missing. Nothing in
// it survives a restart: the spill file is truncated, and per-result
// qid-*.json files left by releases that wrote one file per result are
// removed.
func NewCache(dir string, budget int64, policy Policy) (*Cache, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("zoomin: cache budget must be positive")
	}
	if policy == nil {
		policy = RCO{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "qid-*.json")) // the pattern is well-formed
	for _, path := range stale {
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	spillPath := filepath.Join(dir, spillName)
	spill, err := os.OpenFile(spillPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Cache{
		budget:    budget,
		policy:    policy,
		spillPath: spillPath,
		spill:     spill,
		index:     make(map[int]int),
		registry:  make([]registered, registrySize),
	}, nil
}

// PolicyName returns the active replacement policy's name.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// Close releases the spill file and removes it; the directory stays. A
// closed cache admits nothing and every lookup misses.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.used = nil, 0
	clear(c.index)
	err := c.spill.Close()
	if rerr := os.Remove(c.spillPath); err == nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	return err
}

// Clear drops every entry and forgets every registered query. Used when
// the whole database state is replaced underneath the cache (replica
// snapshot resync): every materialized result may reference rows that no
// longer exist. Cumulative stats are preserved.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.used = c.entries[:0], 0
	clear(c.index)
	clear(c.registry)
	// With nothing live the file can shrink in place. If it cannot, the
	// bytes are merely dead and the next compaction drops them.
	if c.spill.Truncate(0) == nil {
		c.tail = 0
	}
}

// Put registers r's SQL text under its QID and materializes r into the
// cache, evicting victims until the budget admits it. A result larger than
// the entire budget is not admitted, and neither is one whose spill write
// fails (the error is returned): both count as Rejected, stay registered,
// and are re-executed on demand.
func (c *Cache) Put(r *CachedResult) error {
	data := r.encode()
	size := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if r.QID > 0 {
		c.registry[r.QID%registrySize] = registered{r.QID, r.SQL}
	}
	c.drop(r.QID)
	if size > c.budget {
		c.stats.Rejected++
		return nil
	}
	c.evict(size)
	if err := c.write(data); err != nil {
		c.stats.Rejected++
		return err
	}
	c.index[r.QID] = len(c.entries)
	c.entries = append(c.entries, entryMeta{
		QID:        r.QID,
		Size:       size,
		Complexity: r.Complexity,
		LastRef:    c.clock,
		off:        c.tail - size,
	})
	c.used += size
	c.stats.Puts++
	return nil
}

// write appends data at the tail of the spill file, compacting first when
// the file has outgrown twice the budget. Requires c.mu held.
func (c *Cache) write(data []byte) error {
	if c.tail > 2*c.budget {
		if err := c.compact(); err != nil {
			return err
		}
	}
	if _, err := c.spill.WriteAt(data, c.tail); err != nil {
		return err
	}
	c.tail += int64(len(data))
	return nil
}

// compact copies the live extents into a fresh spill file, in file order,
// and swaps it in, which drops every dead byte. On failure the old file
// stays in use. Requires c.mu held, so no read is in flight.
func (c *Cache) compact() error {
	slices.SortFunc(c.entries, func(a, b entryMeta) int { return cmp.Compare(a.off, b.off) })
	for i := range c.entries {
		c.index[c.entries[i].QID] = i
	}
	fresh, err := os.OpenFile(c.spillPath+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// One copy per run of adjacent live extents, file to file: the kernel
	// copies (copy_file_range) and nothing passes through a buffer of ours.
	for i := 0; i < len(c.entries) && err == nil; {
		start := c.entries[i].off
		end := start
		for ; i < len(c.entries) && c.entries[i].off == end; i++ {
			end += c.entries[i].Size
		}
		if _, err = c.spill.Seek(start, io.SeekStart); err == nil {
			_, err = io.CopyN(fresh, c.spill, end-start)
		}
	}
	if err == nil {
		// Unlink before renaming: ext4 answers a rename onto an existing
		// file by flushing the new file's data to disk, milliseconds that
		// scratch data has no use for.
		os.Remove(c.spillPath)
		err = os.Rename(fresh.Name(), c.spillPath)
	}
	if err != nil {
		fresh.Close()
		os.Remove(fresh.Name())
		return err
	}
	c.spill.Close() // unlinked above; only the handle kept it alive
	c.spill, c.tail = fresh, 0
	for i := range c.entries {
		c.entries[i].off = c.tail
		c.tail += c.entries[i].Size
	}
	return nil
}

// drop removes qid from the resident set, if present; its bytes go dead.
// Requires c.mu held.
func (c *Cache) drop(qid int) {
	i, ok := c.index[qid]
	if !ok {
		return
	}
	c.used -= c.entries[i].Size
	last := len(c.entries) - 1
	if i != last {
		c.entries[i] = c.entries[last]
		c.index[c.entries[i].QID] = i
	}
	c.entries = c.entries[:last]
	delete(c.index, qid)
}

// evict makes room for size more bytes. One pass scores every resident
// entry and evicts in ascending score order — exactly the victims, in the
// order, that evicting one at a time would choose — and it goes on past
// the budget down to the low-water mark of 15/16 of it, so the O(resident)
// scoring is paid once per budget/16 bytes admitted, not once per Put.
// Requires c.mu held.
func (c *Cache) evict(size int64) {
	if c.used+size <= c.budget {
		return
	}
	h := c.victims[:0]
	for i := range c.entries {
		h = append(h, victim{c.policy.Score(&c.entries[i], c.clock), c.entries[i].QID})
	}
	c.victims = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for low := c.budget - c.budget/16; c.used+size > low && len(h) > 0; {
		c.drop(h[0].qid)
		c.stats.Evictions++
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
	}
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []victim, i int) {
	for {
		least := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h) && (h[child].score < h[least].score ||
				h[child].score == h[least].score && h[child].qid < h[least].qid) {
				least = child
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Get loads a cached result, updating reference statistics. The boolean
// reports a cache hit. The bytes are read under the lock, so a hit is
// always the extent the index names: a concurrent Put that evicts or
// replaces qid, or compacts the file, comes wholly before or wholly after.
// An entry that cannot be read back or decoded is dropped and its error
// returned; the next zoom-in misses and re-executes.
func (c *Cache) Get(qid int) (*CachedResult, bool, error) {
	c.mu.Lock()
	c.clock++
	i, ok := c.index[qid]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false, nil
	}
	e := &c.entries[i]
	e.LastRef = c.clock
	e.RefCount++
	c.stats.Hits++
	data := make([]byte, e.Size)
	_, err := c.spill.ReadAt(data, e.off)
	c.mu.Unlock()

	var r *CachedResult
	if err == nil {
		r, err = decodeResult(data)
	}
	if err != nil {
		c.mu.Lock()
		c.drop(qid)
		c.mu.Unlock()
		return nil, false, err
	}
	return r, true, nil
}

// Query returns the SQL text registered under qid, for re-execution after
// a miss. Only the registrySize most recent QIDs are remembered; an older
// one fails with ErrQIDExpired.
func (c *Cache) Query(qid int) (string, error) {
	c.mu.Lock()
	slot := c.registry[uint(qid)%registrySize]
	c.mu.Unlock()
	switch {
	case qid <= 0 || slot.qid < qid:
		return "", fmt.Errorf("zoomin: unknown QID %d", qid)
	case slot.qid > qid:
		return "", fmt.Errorf("zoomin: QID %d %w: only the %d most recent QIDs are kept", qid, ErrQIDExpired, registrySize)
	}
	return slot.sql, nil
}

// Contains reports whether qid is resident without touching statistics.
func (c *Cache) Contains(qid int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[qid]
	return ok
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.UsedBytes = c.used
	s.Entries = len(c.entries)
	return s
}

// ResetStats zeroes hit/miss/eviction counters (between benchmark phases).
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = CacheStats{}
}
