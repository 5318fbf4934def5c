package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("insightnotes_test_ops_total", "test counter")
	var wg sync.WaitGroup
	const goroutines, perG = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("Value = %d, want %d", got, goroutines*perG)
	}
}

func TestNilCollectorsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.With("x").Inc()
	hv.With("x").Observe(1)
	r.Counter("insightnotes_test_nil_total", "x").Inc()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || r.Samples() != nil {
		t.Fatal("nil collectors must be inert")
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("insightnotes_test_depth", "test gauge")
	g.Set(3)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 4.5 {
		t.Fatalf("Value = %v, want 4.5", got)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("insightnotes_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 102.65 {
		t.Fatalf("Sum = %v, want 102.65", got)
	}
	// Buckets are le (inclusive upper bounds): 0.05 and 0.1 land in le=0.1,
	// 0.5 in le=1, 2 in le=10, 100 overflows to +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].n.Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestVecIdentityAndGetOrCreate(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("insightnotes_test_kinds_total", "test vec", "kind")
	if v.With("a") != v.With("a") {
		t.Fatal("With must return a stable handle per label value")
	}
	// Re-registration with the same shape returns the same family.
	v2 := r.CounterVec("insightnotes_test_kinds_total", "test vec", "kind")
	v.With("a").Inc()
	if got := v2.With("a").Value(); got != 1 {
		t.Fatalf("re-registered vec sees %d, want 1", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad scheme", func() { r.Counter("requests_total", "no prefix") })
	mustPanic("bad chars", func() { r.Counter("insightnotes_engine_Bad-Name", "caps and dash") })
	mustPanic("missing layer", func() { r.Counter("insightnotes_x", "needs layer and name") })
	r.Counter("insightnotes_test_dup_total", "ok")
	mustPanic("kind conflict", func() { r.Gauge("insightnotes_test_dup_total", "ok") })
	mustPanic("help conflict", func() { r.Counter("insightnotes_test_dup_total", "different help") })
}

func TestDeclaredNamesFollowScheme(t *testing.T) {
	for _, name := range []string{
		NameEngineStatementsTotal, NameEngineStatementErrorsTotal,
		NameEngineStatementSeconds, NameEngineSlowQueriesTotal,
		NameEngineResultRowsTotal, NameEngineAnnotations,
		NameEngineAnnotationBytes, NameEngineEnvelopes,
		NameEngineSummaryBytes,
		NameSummarySummarizeTotal, NameSummaryDigestHitsTotal,
		NameSummaryDigestMissesTotal, NameSummaryRetrainTotal,
		NameExecOpSeconds, NameExecOpRowsTotal, NameExecOpMergesTotal,
		NameExecOpCuratesTotal, NamePlanPlansTotal, NamePlanAccessPathsTotal,
		NameZoominCacheHitsTotal, NameZoominCacheMissesTotal,
		NameZoominCacheEvictionsTotal, NameZoominCachePutsTotal,
		NameZoominCacheSpillsTotal,
		NameZoominCacheRejectedTotal, NameZoominCacheBytes,
		NameZoominCacheEntries, NameZoominRequestsTotal,
		NameZoominCancelledTotal, NameServerConnectionsTotal,
		NameServerActiveConnections, NameServerRequestsTotal,
		NameServerRequestErrorsTotal,
	} {
		if !nameRE.MatchString(name) {
			t.Errorf("declared name %q violates the naming scheme", name)
		}
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte: metric
// names, HELP/TYPE lines, label rendering, histogram bucket ordering with
// the trailing +Inf, and family sorting. A rename or format drift fails
// here and must be reviewed deliberately.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("insightnotes_test_bravo_total", "a plain counter")
	c.Add(3)
	g := r.Gauge("insightnotes_test_delta", "a gauge")
	g.Set(2.5)
	r.GaugeFunc("insightnotes_test_echo", "a function gauge", func() float64 { return 7 })
	v := r.CounterVec("insightnotes_test_alpha_total", "a labeled counter", "kind")
	v.With("read").Add(2)
	v.With("write").Inc()
	h := r.HistogramVec("insightnotes_test_charlie_seconds", "a labeled histogram", "op", []float64{0.01, 0.1, 1})
	h.With("scan").Observe(0.005)
	h.With("scan").Observe(0.05)
	h.With("scan").Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP insightnotes_test_alpha_total a labeled counter
# TYPE insightnotes_test_alpha_total counter
insightnotes_test_alpha_total{kind="read"} 2
insightnotes_test_alpha_total{kind="write"} 1
# HELP insightnotes_test_bravo_total a plain counter
# TYPE insightnotes_test_bravo_total counter
insightnotes_test_bravo_total 3
# HELP insightnotes_test_charlie_seconds a labeled histogram
# TYPE insightnotes_test_charlie_seconds histogram
insightnotes_test_charlie_seconds_bucket{op="scan",le="0.01"} 1
insightnotes_test_charlie_seconds_bucket{op="scan",le="0.1"} 2
insightnotes_test_charlie_seconds_bucket{op="scan",le="1"} 2
insightnotes_test_charlie_seconds_bucket{op="scan",le="+Inf"} 3
insightnotes_test_charlie_seconds_sum{op="scan"} 5.055
insightnotes_test_charlie_seconds_count{op="scan"} 3
# HELP insightnotes_test_delta a gauge
# TYPE insightnotes_test_delta gauge
insightnotes_test_delta 2.5
# HELP insightnotes_test_echo a function gauge
# TYPE insightnotes_test_echo gauge
insightnotes_test_echo 7
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drift:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSamplesMatchExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("insightnotes_test_foo_total", "c").Add(4)
	h := r.Histogram("insightnotes_test_bar_seconds", "h", []float64{1})
	h.Observe(0.5)
	samples := r.Samples()
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		"insightnotes_test_foo_total":                     4,
		`insightnotes_test_bar_seconds_bucket{le="1"}`:    1,
		`insightnotes_test_bar_seconds_bucket{le="+Inf"}`: 1,
		"insightnotes_test_bar_seconds_sum":               0.5,
		"insightnotes_test_bar_seconds_count":             1,
	} {
		if byName[name] != want {
			t.Errorf("sample %s = %v, want %v (all: %v)", name, byName[name], want, samples)
		}
	}
}
