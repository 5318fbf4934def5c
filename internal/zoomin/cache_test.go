package zoomin

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"insightnotes/internal/types"
)

// sized builds a row-less live result whose size is exactly size bytes (at
// least liveOverhead plus the tag): the SQL text is tag plus padding.
func sized(t testing.TB, qid, size int, complexity float64, tag string) *LiveResult {
	t.Helper()
	pad := size - liveOverhead - len(tag)
	if pad < 0 {
		t.Fatalf("sized(%d, %d): tag %q does not fit", qid, size, tag)
	}
	return &LiveResult{QID: qid, SQL: tag + strings.Repeat(" ", pad), Complexity: complexity}
}

func newCache(t testing.TB, budget int64, p Policy) *Cache {
	t.Helper()
	c, err := NewCache(t.TempDir(), budget, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func spillSize(t testing.TB, c *Cache) int64 {
	t.Helper()
	fi, err := c.spill.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// formBytes sums the resident entries' sizes by form.
func formBytes(c *Cache) (live, spilled int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.live != nil {
			live += e.Size
		} else {
			spilled += e.Size
		}
	}
	return live, spilled
}

// One Put that overflows the budget makes room down to the low-water mark
// in a single pass; the victims must be exactly the lowest-scored entries,
// as many as taking them one at a time (re-scoring each time) would have
// taken. A victim a zoom-in referenced is spilled, which frees what its
// encoding saves; any other leaves the cache.
func TestCacheEvictsInExactPolicyOrder(t *testing.T) {
	const n, size = 64, 200
	for _, p := range []Policy{RCO{}, LRU{}} {
		t.Run(p.Name(), func(t *testing.T) {
			c := newCache(t, n*size, p)
			rng := rand.New(rand.NewSource(7))
			for qid := 1; qid <= n; qid++ {
				// The older half, which zoom-ins reference, is cheap to
				// recompute, so that RCO too takes victims of both kinds.
				complexity := float64(1 + rng.Intn(1000))
				if qid <= n/2 {
					complexity = float64(1 + rng.Intn(10))
				}
				c.Put(sized(t, qid, size, complexity, ""))
				if qid == n/2 {
					for k := 0; k < n; k++ { // uneven recency and frequency, on the older half
						c.Get(1 + rng.Intn(n/2))
					}
				}
			}
			if st := c.Stats(); st.Entries != n || st.Evictions != 0 || st.Spills != 0 || st.UsedBytes != n*size {
				t.Fatalf("before the overflow: %+v", st)
			}

			// What taking one victim at a time would do at the Put's clock.
			clock := c.clock + 1
			resident := append([]entryMeta(nil), c.entries...)
			var spilled, dropped []int
			for used := int64(n * size); used+size > n*size-n*size/16; {
				least := 0
				for i := range resident {
					si, sl := p.Score(&resident[i], clock), p.Score(&resident[least], clock)
					if si < sl || si == sl && resident[i].QID < resident[least].QID {
						least = i
					}
				}
				if m := resident[least]; m.RefCount > 0 {
					spilled = append(spilled, m.QID)
					used -= m.Size - int64(len(BuildCachedResult(m.live)))
				} else {
					dropped = append(dropped, m.QID)
					used -= m.Size
				}
				resident = append(resident[:least], resident[least+1:]...)
			}
			if len(spilled) == 0 || len(dropped) == 0 {
				t.Fatalf("victims spilled %v, dropped %v: the overflow must take both kinds", spilled, dropped)
			}

			c.Put(sized(t, n+1, size, 500, ""))
			if st := c.Stats(); st.Evictions != int64(len(dropped)) || st.Spills != int64(len(spilled)) || st.Entries != n+1-len(dropped) {
				t.Fatalf("after the overflow: %+v, want %d spilled and %d dropped", st, len(spilled), len(dropped))
			}
			for _, qid := range spilled {
				if form := formOf(c, qid); form != "spilled" {
					t.Errorf("QID %d is %q, want spilled (victims spilled %v, dropped %v)", qid, form, spilled, dropped)
				}
			}
			for _, qid := range dropped {
				if c.Contains(qid) {
					t.Errorf("QID %d should have been evicted (victims spilled %v, dropped %v)", qid, spilled, dropped)
				}
			}
		})
	}
}

// The cache against a map-based reference that re-scores and sorts on
// every overflow and keeps payloads in memory: a victim a zoom-in
// referenced is spilled and counts at its encoded length from then on, any
// other leaves, and the two forms together stay within the budget.
func TestCacheMatchesModel(t *testing.T) {
	const budget = 8 << 10
	// Columns are in a result's encoding but not in its live size, so a
	// result given these spills to more bytes than it held live.
	wide := []types.Column{{Table: strings.Repeat("t", 60), Name: strings.Repeat("c", 60)}, {Name: strings.Repeat("d", 120)}}
	for _, p := range []Policy{RCO{}, LRU{}} {
		t.Run(p.Name(), func(t *testing.T) {
			c := newCache(t, budget, p)
			rng := rand.New(rand.NewSource(20150531))

			type modelEntry struct {
				meta      entryMeta
				sql       string
				live      bool
				spillSize int64 // the encoded length, the size once spilled
			}
			model := map[int]*modelEntry{}
			var used, clock int64
			var stats CacheStats
			var largest int64 // the largest entry written to the spill
			drop := func(qid int) {
				if e, ok := model[qid]; ok {
					used -= e.meta.Size
					delete(model, qid)
				}
			}
			evict := func(size int64) {
				if used+size <= budget {
					return
				}
				for used+size > budget-budget/16 && len(model) > 0 {
					order := make([]*modelEntry, 0, len(model))
					for _, e := range model {
						order = append(order, e)
					}
					sort.Slice(order, func(i, j int) bool {
						si, sj := p.Score(&order[i].meta, clock), p.Score(&order[j].meta, clock)
						return si < sj || si == sj && order[i].meta.QID < order[j].meta.QID
					})
					for _, e := range order {
						if used+size <= budget-budget/16 {
							break
						}
						if !e.live || e.meta.RefCount == 0 || e.spillSize > budget {
							drop(e.meta.QID)
							stats.Evictions++
							continue
						}
						used += e.spillSize - e.meta.Size
						e.meta.Size, e.live = e.spillSize, false
						largest = max(largest, e.spillSize)
						stats.Spills++
					}
				}
			}

			compactions, version := 0, 0
			for op := 0; op < 6000; op++ {
				qid := 1 + rng.Intn(40) // about as many as the budget holds
				// A Clear empties the spill file, so it is rare enough for
				// the spill to fill up and compact between two of them.
				switch k := rng.Intn(1000); {
				case k < 2:
					c.Clear()
					model, used = map[int]*modelEntry{}, 0
				case k < 450:
					r, hit, err := c.Get(qid)
					if err != nil {
						t.Fatalf("op %d: Get(%d): %v", op, qid, err)
					}
					clock++
					e, ok := model[qid]
					if hit != ok {
						t.Fatalf("op %d: Get(%d) hit=%v, model says %v", op, qid, hit, ok)
					}
					if !ok {
						stats.Misses++
						break
					}
					stats.Hits++
					e.meta.LastRef, e.meta.RefCount = clock, e.meta.RefCount+1
					var gotQID int
					var gotSQL string
					switch r := r.(type) {
					case *LiveResult:
						gotQID, gotSQL = r.QID, r.SQL
					case *CachedResult:
						gotQID, gotSQL = r.QID, r.SQL
					}
					if _, isLive := r.(*LiveResult); gotQID != qid || gotSQL != e.sql || isLive != e.live {
						t.Fatalf("op %d: Get(%d) returned %T QID %d, SQL %.40q; want live=%v %.40q", op, qid, r, gotQID, gotSQL, e.live, e.sql)
					}
				default:
					size := 100 + rng.Intn(900)
					switch rng.Intn(20) {
					case 0:
						size = budget + 1 + rng.Intn(budget) // never fits
					case 1:
						size = budget/2 + rng.Intn(budget/2) // displaces most of the cache
					}
					version++
					r := sized(t, qid, size, float64(1+rng.Intn(50)), fmt.Sprintf("q%d v%d", qid, version))
					if rng.Intn(4) == 0 {
						r.Columns = wide
					}
					before := c.tail
					if err := c.Put(r); err != nil {
						t.Fatalf("op %d: Put(%d): %v", op, qid, err)
					}
					if c.tail < before {
						compactions++
					}
					clock++
					drop(qid)
					if size > budget {
						stats.Rejected++
						break
					}
					evict(int64(size))
					model[qid] = &modelEntry{
						meta:      entryMeta{QID: qid, Size: int64(size), Complexity: r.Complexity, LastRef: clock},
						sql:       r.SQL,
						live:      true,
						spillSize: int64(len(BuildCachedResult(r))),
					}
					used += int64(size)
					stats.Puts++
				}

				stats.UsedBytes, stats.Entries = used, len(model)
				if got := c.Stats(); got != stats {
					t.Fatalf("op %d: stats %+v, model %+v", op, got, stats)
				}
				live, spilled := formBytes(c)
				if live+spilled != used || live > budget || spilled > budget || used > budget {
					t.Fatalf("op %d: %d live and %d spilled bytes, model %d in all; the budget is %d", op, live, spilled, used, budget)
				}
				if sz := spillSize(t, c); sz > 2*budget+largest {
					t.Fatalf("op %d: spill file is %d bytes, bound %d", op, sz, 2*budget+largest)
				}
			}
			t.Logf("%d compactions, %+v", compactions, stats)
			if compactions < 3 {
				t.Fatalf("only %d compactions; the test must cross at least three", compactions)
			}
			if stats.Hits == 0 || stats.Evictions == 0 || stats.Rejected == 0 || stats.Spills == 0 {
				t.Fatalf("stream did not exercise every path: %+v", stats)
			}
		})
	}
}

// Goroutines Put, Get and Clear overlapping QIDs in a cache of a few
// entries, so hits race evictions, spills, replacements and compactions.
// Every result shares one set of rows with summary envelopes, so zoom-ins
// on live hits read the objects that spills of other entries are encoding.
// A Get is a miss or the payload of a Put of that QID no older than the
// last one finished before the Get began — never an error, never another
// QID's bytes — and expands to the same rows in either form. Run under
// -race.
func TestCacheConcurrentHammer(t *testing.T) {
	const qids, workers, opsEach = 12, 8, 3000
	rows := figure3Rows(t)
	budget := 4 * (&LiveResult{Rows: rows}).size()
	c := newCache(t, budget, RCO{})
	var (
		putMu   [qids]sync.Mutex // serializes Puts per QID, so versions are ordered
		started [qids]atomic.Int64
		done    [qids]atomic.Int64
		hits    atomic.Int64
		spilled atomic.Int64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				q := rng.Intn(qids)
				switch k := rng.Intn(100); {
				case k < 1:
					c.Clear()
				case k < 50:
					putMu[q].Lock()
					v := started[q].Add(1)
					err := c.Put(&LiveResult{
						QID:        q + 1,
						SQL:        fmt.Sprintf("q%d v%d", q+1, v) + strings.Repeat(" ", rng.Intn(300)),
						Columns:    resultSchema().Columns,
						Rows:       rows,
						Complexity: float64(1 + q),
					})
					done[q].Store(v)
					putMu[q].Unlock()
					if err != nil {
						t.Errorf("Put(%d): %v", q+1, err)
					}
				default:
					lo := done[q].Load()
					r, hit, err := c.Get(q + 1)
					hi := started[q].Load()
					if err != nil {
						t.Errorf("Get(%d): %v", q+1, err)
					}
					if !hit {
						continue
					}
					hits.Add(1)
					var gotQID int
					var sql string
					switch r := r.(type) {
					case *LiveResult:
						gotQID, sql = r.QID, r.SQL
					case *CachedResult:
						gotQID, sql = r.QID, r.SQL
						spilled.Add(1)
					}
					var gotQ int
					var gotV int64
					if _, err := fmt.Sscanf(sql, "q%d v%d", &gotQ, &gotV); err != nil {
						t.Errorf("Get(%d): payload %.30q: %v", q+1, sql, err)
					}
					if gotQID != q+1 || gotQ != q+1 || gotV < lo || gotV > hi {
						t.Errorf("Get(%d) returned QID %d payload %.30q; want version %d..%d", q+1, gotQID, sql, lo, hi)
					}
					if got, err := Expand(r, nil, "NaiveBayesClass", 1); err != nil || len(got) != 2 || len(got[1].IDs) != 2 {
						t.Errorf("Get(%d): %T expands to %v, %v", q+1, r, got, err)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if hits.Load() == 0 || spilled.Load() == 0 {
		t.Errorf("%d hits, %d of them spilled; the hammer must hit both forms", hits.Load(), spilled.Load())
	}
	if live, spilled := formBytes(c); live+spilled > budget {
		t.Errorf("bytes over budget: %d live, %d spilled, budget %d", live, spilled, budget)
	}
}

// A spill that cannot be read back, or cannot be written, loses the entry,
// not the statement's QID: the result is re-executed on demand.
func TestCachePutSurvivesSpillFailure(t *testing.T) {
	c := newCache(t, 1000, LRU{})
	c.Put(sized(t, 1, 400, 1, "SELECT 1"))
	c.Get(1)
	c.Put(sized(t, 2, 400, 1, "SELECT 2"))
	c.Put(sized(t, 3, 400, 1, "SELECT 3")) // 1 is spilled, 2 leaves
	if formOf(c, 1) != "spilled" || c.Contains(2) {
		t.Fatalf("QID 1 is %q, Contains(2)=%v", formOf(c, 1), c.Contains(2))
	}
	c.spill.Close() // every later read and write fails
	// The spilled entry that can no longer be read is dropped: one error,
	// then a plain miss.
	if _, hit, err := c.Get(1); hit || err == nil {
		t.Errorf("Get(1) on a closed spill file: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Get(1); hit || err != nil {
		t.Errorf("second Get(1): hit=%v err=%v, want a clean miss", hit, err)
	}
	c.Get(3)
	c.Put(sized(t, 4, 400, 1, "SELECT 4"))
	if err := c.Put(sized(t, 5, 400, 1, "SELECT 5")); err == nil { // 3 cannot be spilled
		t.Fatal("a Put whose victim could not be spilled reported success")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Puts != 5 || st.Spills != 1 || c.Contains(3) || formOf(c, 5) != "live" {
		t.Errorf("stats %+v, Contains(3)=%v, QID 5 %q", st, c.Contains(3), formOf(c, 5))
	}
	if sql, err := c.Query(3); err != nil || !strings.HasPrefix(sql, "SELECT 3") {
		t.Errorf("Query(3) = %q, %v", sql, err)
	}
}

func TestCacheRegistryIsBounded(t *testing.T) {
	c := newCache(t, 1, RCO{}) // admits nothing; registration is independent
	c.Put(sized(t, 105, 100, 1, "SELECT old"))
	if sql, err := c.Query(105); err != nil || !strings.HasPrefix(sql, "SELECT old") {
		t.Fatalf("Query(105) = %q, %v", sql, err)
	}
	c.Put(sized(t, 105+registrySize, 100, 1, "SELECT new"))
	if _, err := c.Query(105); !errors.Is(err, ErrQIDExpired) {
		t.Errorf("Query(105) after the ring wrapped: %v, want ErrQIDExpired", err)
	}
	if sql, err := c.Query(105 + registrySize); err != nil || !strings.HasPrefix(sql, "SELECT new") {
		t.Errorf("Query(newest) = %q, %v", sql, err)
	}
	for _, qid := range []int{-3, 0, 106, 105 + 2*registrySize} {
		if _, err := c.Query(qid); err == nil || errors.Is(err, ErrQIDExpired) {
			t.Errorf("Query(%d) of a QID never registered: %v, want an unknown-QID error", qid, err)
		}
	}
	if len(c.registry) != registrySize {
		t.Errorf("registry holds %d slots", len(c.registry))
	}
}

func TestNewCacheRemovesStaleResultFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"qid-101.json", "qid-7.json", "keep.txt", spillName} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCache(dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sz := spillSize(t, c); sz != 0 {
		t.Errorf("spill file not truncated on open: %d bytes", sz)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	left, _ := os.ReadDir(dir)
	if len(left) != 1 || left[0].Name() != "keep.txt" {
		t.Errorf("after open and close the directory holds %v, want only keep.txt", left)
	}
}

// putSteadyState fills a cache of the given budget, both forms, with 1 KiB
// results a zoom-in referenced, and returns a function that admits one
// more and references it, evicting and spilling as it must.
func putSteadyState(tb testing.TB, budget int64) func() {
	c := newCache(tb, budget, RCO{})
	qid := 0
	next := func() {
		qid++
		if err := c.Put(&LiveResult{QID: qid, SQL: strings.Repeat("x", 1000), Complexity: float64(1 + qid%97)}); err != nil {
			tb.Fatal(err)
		}
		c.Get(qid)
	}
	for c.Stats().Evictions == 0 {
		next()
	}
	return next
}

// BenchmarkCachePutSteadyState is one Put and one Get into a full cache.
// Its cost must not depend on the budget, that is on how many entries are
// resident.
func BenchmarkCachePutSteadyState(b *testing.B) {
	for _, mib := range []int64{4, 64} {
		b.Run(fmt.Sprintf("budget=%dMiB", mib), func(b *testing.B) {
			put := putSteadyState(b, mib<<20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put()
			}
		})
	}
}

// A steady-state Put allocates the same at any budget, in count and in
// bytes: nothing it does grows with the resident count. (Its time is
// BenchmarkCachePutSteadyState's to report; a wall-clock bound would make
// this test depend on the host.)
func TestCachePutAllocationIndependentOfBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 64 MiB cache")
	}
	// 8192 Puts of 1 KiB cross eviction passes at either budget, and a
	// compaction at 4 MiB.
	const puts = 8192
	var allocs, bytes [2]float64
	for i, mib := range []int64{4, 64} {
		put := putSteadyState(t, mib<<20)
		allocs[i] = testing.AllocsPerRun(puts, put)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < puts; k++ {
			put()
		}
		runtime.ReadMemStats(&after)
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / puts
	}
	t.Logf("steady-state Put: %.1f allocs/op, %.0f B/op at 4 MiB; %.1f allocs/op, %.0f B/op at 64 MiB",
		allocs[0], bytes[0], allocs[1], bytes[1])
	// AllocsPerRun rounds its average; the few allocations of a compaction,
	// 16 times as frequent at 4 MiB, can tip it by one.
	if math.Abs(allocs[0]-allocs[1]) > 1 {
		t.Errorf("allocs/op moves with the budget: %.0f at 4 MiB, %.0f at 64 MiB", allocs[0], allocs[1])
	}
	if bytes[1] > 1.5*bytes[0] {
		t.Errorf("B/op grows with the budget: %.0f at 4 MiB, %.0f at 64 MiB", bytes[0], bytes[1])
	}
}
