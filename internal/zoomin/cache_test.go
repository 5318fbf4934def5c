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

// sized builds a result whose encoding is exactly size bytes (at least
// ~20): the SQL text is tag plus padding.
func sized(t testing.TB, qid, size int, complexity float64, tag string) *CachedResult {
	t.Helper()
	r := &CachedResult{QID: qid, SQL: tag, Complexity: complexity}
	for {
		base := len(r.encode())
		if base > size {
			t.Fatalf("sized(%d, %d): base encoding is %d bytes", qid, size, base)
		}
		// Padding lengthens the SQL text's length prefix by at most two
		// bytes.
		for pad := size - base; pad >= 0 && pad >= size-base-2; pad-- {
			r.SQL = tag + strings.Repeat(" ", pad)
			if len(r.encode()) == size {
				return r
			}
		}
		// No padding lands on size exactly; an empty column shifts the
		// base.
		r.SQL = tag
		r.Columns = append(r.Columns, types.Column{})
	}
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

// One Put that overflows the budget evicts down to the low-water mark in a
// single pass; the victims must be exactly the lowest-scored entries, as
// many as evicting one at a time (re-scoring each time) would have taken.
func TestCacheEvictsInExactPolicyOrder(t *testing.T) {
	const n, size = 64, 200
	for _, p := range []Policy{RCO{}, LRU{}} {
		t.Run(p.Name(), func(t *testing.T) {
			c := newCache(t, n*size, p)
			rng := rand.New(rand.NewSource(7))
			for qid := 1; qid <= n; qid++ {
				c.Put(sized(t, qid, size, float64(1+rng.Intn(1000)), ""))
			}
			for k := 0; k < 3*n; k++ { // uneven recency and frequency
				c.Get(1 + rng.Intn(n))
			}
			if st := c.Stats(); st.Entries != n || st.Evictions != 0 || st.UsedBytes != n*size {
				t.Fatalf("before the overflow: %+v", st)
			}

			// What one-at-a-time eviction would do at the Put's clock.
			clock := c.clock + 1
			resident := append([]entryMeta(nil), c.entries...)
			var want []int
			for used := int64(n * size); used+size > n*size-n*size/16; used -= size {
				least := 0
				for i := range resident {
					si, sl := p.Score(&resident[i], clock), p.Score(&resident[least], clock)
					if si < sl || si == sl && resident[i].QID < resident[least].QID {
						least = i
					}
				}
				want = append(want, resident[least].QID)
				resident = append(resident[:least], resident[least+1:]...)
			}
			if len(want) != n/16+1 {
				t.Fatalf("expected %d victims, computed %d", n/16+1, len(want))
			}

			c.Put(sized(t, n+1, size, 500, ""))
			if st := c.Stats(); st.Evictions != int64(len(want)) || st.Entries != n+1-len(want) {
				t.Fatalf("after the overflow: %+v, want %d evictions", st, len(want))
			}
			for _, qid := range want {
				if c.Contains(qid) {
					t.Errorf("QID %d should have been evicted (victims %v)", qid, want)
				}
			}
		})
	}
}

// The cache against a map-based reference that re-scores and sorts on
// every overflow and keeps payloads in memory.
func TestCacheMatchesModel(t *testing.T) {
	const budget = 8 << 10
	for _, p := range []Policy{RCO{}, LRU{}} {
		t.Run(p.Name(), func(t *testing.T) {
			c := newCache(t, budget, p)
			rng := rand.New(rand.NewSource(20150531))

			type modelEntry struct {
				meta entryMeta
				sql  string
			}
			model := map[int]*modelEntry{}
			var used, clock int64
			var stats CacheStats
			drop := func(qid int) {
				if e, ok := model[qid]; ok {
					used -= e.meta.Size
					delete(model, qid)
				}
			}

			var largest int64
			compactions, version := 0, 0
			for op := 0; op < 6000; op++ {
				qid := 1 + rng.Intn(120)
				switch k := rng.Intn(100); {
				case k < 1:
					c.Clear()
					model, used = map[int]*modelEntry{}, 0
				case k < 40:
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
					if r.QID != qid || r.SQL != e.sql {
						t.Fatalf("op %d: Get(%d) returned QID %d, SQL %.40q; want %.40q", op, qid, r.QID, r.SQL, e.sql)
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
					largest = max(largest, int64(size))
					if used+int64(size) > budget {
						order := make([]*modelEntry, 0, len(model))
						for _, e := range model {
							order = append(order, e)
						}
						sort.Slice(order, func(i, j int) bool {
							si, sj := p.Score(&order[i].meta, clock), p.Score(&order[j].meta, clock)
							return si < sj || si == sj && order[i].meta.QID < order[j].meta.QID
						})
						for _, e := range order {
							if used+int64(size) <= budget-budget/16 {
								break
							}
							drop(e.meta.QID)
							stats.Evictions++
						}
					}
					model[qid] = &modelEntry{
						meta: entryMeta{QID: qid, Size: int64(size), Complexity: r.Complexity, LastRef: clock},
						sql:  r.SQL,
					}
					used += int64(size)
					stats.Puts++
				}

				stats.UsedBytes, stats.Entries = used, len(model)
				if got := c.Stats(); got != stats {
					t.Fatalf("op %d: stats %+v, model %+v", op, got, stats)
				}
				if used > budget {
					t.Fatalf("op %d: %d live bytes over the %d budget", op, used, budget)
				}
				if sz := spillSize(t, c); sz > 2*budget+largest {
					t.Fatalf("op %d: spill file is %d bytes, bound %d", op, sz, 2*budget+largest)
				}
			}
			if compactions < 3 {
				t.Fatalf("only %d compactions; the test must cross at least three", compactions)
			}
			if stats.Hits == 0 || stats.Evictions == 0 || stats.Rejected == 0 {
				t.Fatalf("stream did not exercise every path: %+v", stats)
			}
		})
	}
}

// Goroutines Put, Get and Clear overlapping QIDs in a cache of a few
// entries, so hits race evictions, replacements and compactions. A Get is a
// miss or the payload of a Put of that QID no older than the last one
// finished before the Get began — never an error, never another QID's
// bytes. Run under -race.
func TestCacheConcurrentHammer(t *testing.T) {
	const qids, workers, opsEach = 12, 8, 3000
	c := newCache(t, 1200, RCO{})
	var (
		putMu   [qids]sync.Mutex // serializes Puts per QID, so versions are ordered
		started [qids]atomic.Int64
		done    [qids]atomic.Int64
		hits    atomic.Int64
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
					err := c.Put(sized(t, q+1, 100+rng.Intn(300), float64(1+q), fmt.Sprintf("q%d v%d", q+1, v)))
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
					var gotQ int
					var gotV int64
					if _, err := fmt.Sscanf(r.SQL, "q%d v%d", &gotQ, &gotV); err != nil {
						t.Errorf("Get(%d): payload %.30q: %v", q+1, r.SQL, err)
					}
					if r.QID != q+1 || gotQ != q+1 || gotV < lo || gotV > hi {
						t.Errorf("Get(%d) returned QID %d payload %.30q; want version %d..%d", q+1, r.QID, r.SQL, lo, hi)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no Get ever hit; the hammer checked nothing")
	}
	if st := c.Stats(); st.UsedBytes > 1200 {
		t.Errorf("live bytes over budget: %+v", st)
	}
}

// A spill write that fails loses the entry, not the statement's QID: the
// result is counted as rejected and its SQL stays registered.
func TestCachePutSurvivesSpillFailure(t *testing.T) {
	c := newCache(t, 1<<20, RCO{})
	c.Put(sized(t, 1, 200, 1, "SELECT 1"))
	c.spill.Close() // every later read and write fails
	err := c.Put(sized(t, 2, 200, 1, "SELECT 2"))
	if err == nil {
		t.Fatal("Put on a closed spill file reported success")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Puts != 1 || c.Contains(2) {
		t.Errorf("stats %+v, Contains(2)=%v", st, c.Contains(2))
	}
	if sql, err := c.Query(2); err != nil || !strings.HasPrefix(sql, "SELECT 2") {
		t.Errorf("Query(2) = %q, %v", sql, err)
	}
	// The resident entry that can no longer be read is dropped: one error,
	// then a plain miss.
	if _, hit, err := c.Get(1); hit || err == nil {
		t.Errorf("Get(1) on a closed spill file: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Get(1); hit || err != nil {
		t.Errorf("second Get(1): hit=%v err=%v, want a clean miss", hit, err)
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

// putSteadyState fills a cache of the given budget with 1 KiB results and
// returns a function that admits one more, evicting as it must.
func putSteadyState(tb testing.TB, budget int64) func() {
	c := newCache(tb, budget, RCO{})
	qid := 0
	next := func() {
		qid++
		r := CachedResult{QID: qid, SQL: strings.Repeat("x", 1000), Complexity: float64(1 + qid%97)}
		if err := c.Put(&r); err != nil {
			tb.Fatal(err)
		}
	}
	for c.Stats().Evictions == 0 {
		next()
	}
	return next
}

// BenchmarkCachePutSteadyState is one Put into a full cache. Its cost must
// not depend on the budget, that is on how many entries are resident.
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
	// 8192 Puts of 1 KiB cross two eviction passes at 64 MiB, and two
	// compactions at 4 MiB.
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
