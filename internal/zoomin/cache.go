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
// spilled result.
const spillName = "zoomin.spill"

// registrySize is how many of the most recent QIDs keep their SQL text for
// re-execution on a miss.
const registrySize = 1 << 16

// ErrQIDExpired reports a zoom-in on a QID that is neither resident nor
// among the registrySize most recent ones: its SQL text is gone.
var ErrQIDExpired = errors.New("expired from the zoom-in registry")

// entryMeta is the bookkeeping of one resident result, in either form, and
// what the replacement policies score.
type entryMeta struct {
	QID int
	// Size is what the entry counts against the budget: its live size, or
	// once spilled its encoded length.
	Size       int64
	Complexity float64
	LastRef    int64       // logical clock of the last reference
	RefCount   int         // zoom-ins that referenced the entry
	live       *LiveResult // the result while it is in memory; nil once spilled
	off        int64       // spilled: offset of the encoded result in the spill file
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
// shrinks with the space it occupies. The entry with the lowest value is
// evicted.
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
	Hits   int64
	Misses int64
	// Evictions counts entries that left the cache under the budget: live
	// results no zoom-in referenced, and spilled entries.
	Evictions int64
	// Puts counts results admitted into the cache, all of them live.
	Puts int64
	// Spills counts live results written to the spill file when they left
	// memory, because a zoom-in had referenced them.
	Spills int64
	// Rejected counts results that were not admitted: larger than the whole
	// budget or offered to a closed cache, or lost to a spill-file I/O
	// failure. Either way the query is re-executed on demand instead.
	Rejected int64
	// UsedBytes is what the resident entries count against the budget.
	UsedBytes int64
	Entries   int
}

// Cache is the limited materialization cache for query results. One index
// holds the resident set, and each entry is in one of two forms. A live
// entry is the result as the executor produced it, held by reference, and
// counts at its live size: Put admits every result so, with no encoding and
// no I/O. A spilled entry is one extent of a single spill file, written
// once at the tail, and counts at its encoded length. One byte budget caps
// the two forms together. Under pressure entries are taken in ascending
// order of the configured policy's score: a live entry that a zoom-in has
// referenced is encoded and spilled, and stays; any other entry leaves, its
// QID still registered, so a zoom-in on it re-executes. A result thus
// reaches the disk only by demonstrated use. Evicting or replacing a
// spilled entry only edits the index — its bytes go dead in place — and
// compact reclaims dead bytes once the file has grown past twice the
// budget. The cache also remembers the SQL text of the most recent QIDs, so
// a zoom-in on an evicted result can re-execute.
type Cache struct {
	mu     sync.Mutex
	budget int64
	policy Policy
	closed bool

	spillPath string
	spill     *os.File
	tail      int64 // next write offset: spilled plus dead bytes

	entries []entryMeta // the resident set, unordered
	index   map[int]int // QID → position in entries
	used    int64       // the entries' Size, summed
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
	c.closed = true
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
// snapshot resync): every cached result may reference rows that no
// longer exist. Cumulative stats are preserved.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.used = c.entries[:0], 0
	clear(c.index)
	clear(c.registry)
	// With nothing spilled the file can shrink in place. If it cannot, the
	// bytes are merely dead and the next compaction drops them.
	if c.spill.Truncate(0) == nil {
		c.tail = 0
	}
}

// Put registers r's SQL text under its QID and admits r as a live entry,
// evicting until the budget admits it. It encodes nothing of r and writes
// nothing of r. A result larger than the entire budget, or offered to a
// closed cache, is not admitted: it counts as Rejected, stays registered,
// and is re-executed on demand. A spill write that fails while making room
// loses that victim, counts it as Rejected, and is returned.
func (c *Cache) Put(r *LiveResult) error {
	size := r.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if r.QID > 0 {
		c.registry[r.QID%registrySize] = registered{r.QID, r.SQL}
	}
	c.drop(r.QID)
	if c.closed || size > c.budget {
		c.stats.Rejected++
		return nil
	}
	err := c.evict(size)
	c.index[r.QID] = len(c.entries)
	c.entries = append(c.entries, entryMeta{QID: r.QID, Size: size, Complexity: r.Complexity, LastRef: c.clock, live: r})
	c.used += size
	c.stats.Puts++
	return err
}

// spillEntry encodes the live entry e, appends it to the spill file and
// turns e into a spilled entry of that length. An entry whose encoding is
// larger than the budget, or cannot be written, is dropped instead.
// Requires c.mu held.
func (c *Cache) spillEntry(e *entryMeta) error {
	data := BuildCachedResult(e.live)
	n := int64(len(data))
	if n > c.budget {
		c.drop(e.QID)
		c.stats.Evictions++
		return nil
	}
	if err := c.write(data); err != nil {
		c.drop(e.QID)
		c.stats.Rejected++
		return err
	}
	c.used += n - e.Size
	e.Size, e.live, e.off = n, nil, c.tail-n
	c.stats.Spills++
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

// compact copies the spilled extents into a fresh spill file, in file
// order, and swaps it in, which drops every dead byte. On failure the old
// file stays in use. Requires c.mu held, so no read is in flight.
func (c *Cache) compact() error {
	var extents []*entryMeta
	for i := range c.entries {
		if c.entries[i].live == nil {
			extents = append(extents, &c.entries[i])
		}
	}
	slices.SortFunc(extents, func(a, b *entryMeta) int { return cmp.Compare(a.off, b.off) })
	fresh, err := os.OpenFile(c.spillPath+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// One copy per run of adjacent extents, file to file: the kernel copies
	// (copy_file_range) and nothing passes through a buffer of ours.
	for i := 0; i < len(extents) && err == nil; {
		start := extents[i].off
		end := start
		for ; i < len(extents) && extents[i].off == end; i++ {
			end += extents[i].Size
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
	for _, m := range extents {
		m.off = c.tail
		c.tail += m.Size
	}
	return nil
}

// drop removes qid from the resident set, if present; a spilled entry's
// bytes go dead. Requires c.mu held.
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

// evict makes room for size more bytes. A pass scores every resident entry
// and takes them in ascending score order — exactly the victims, in the
// order, that taking one at a time would choose — and it goes on past the
// budget down to the low-water mark of 15/16 of it, so the O(resident)
// scoring is paid once per budget/16 bytes admitted, not once per Put. A
// live victim that a zoom-in has referenced is spilled, and counts at its
// encoding from then on; every other victim leaves the cache. Should a
// pass spill every entry and still fall short, the next one takes spilled
// entries. It returns the first spill write error. Requires c.mu held.
func (c *Cache) evict(size int64) error {
	if c.used+size <= c.budget {
		return nil
	}
	var err error
	for low := c.budget - c.budget/16; c.used+size > low && len(c.entries) > 0; {
		h := c.victims[:0]
		for i := range c.entries {
			h = append(h, victim{c.policy.Score(&c.entries[i], c.clock), c.entries[i].QID})
		}
		c.victims = h
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		for ; c.used+size > low && len(h) > 0; h = h[:len(h)-1] {
			if e := &c.entries[c.index[h[0].qid]]; e.live != nil && e.RefCount > 0 {
				if serr := c.spillEntry(e); err == nil {
					err = serr
				}
			} else {
				c.drop(e.QID)
				c.stats.Evictions++
			}
			h[0] = h[len(h)-1]
			siftDown(h[:len(h)-1], 0)
		}
	}
	return err
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

// Get returns a resident result for a zoom-in, updating reference
// statistics; the boolean reports a cache hit. A live entry is returned as
// is. A spilled entry's bytes are read under the lock, so a hit is always
// the extent the index names: a concurrent Put that evicts or replaces
// qid, or compacts the file, comes wholly before or wholly after. A spilled
// entry that cannot be read back or decoded is dropped and its error
// returned; the next zoom-in misses and re-executes.
func (c *Cache) Get(qid int) (Zoomable, bool, error) {
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
	if live := e.live; live != nil {
		c.mu.Unlock()
		return live, true, nil
	}
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

// Contains reports whether qid is resident, in either form, without
// touching statistics.
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
