package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"insightnotes/internal/engine"
)

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units, directions and bounds, and bench_test.go holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the old value it may worsen by
}

// The bounds are the contract's maximum. On the 2-vCPU VM the benchmark
// was written on, ten runs on ten seeds have a quartile spread of up to
// 0.10 on throughput and 0.18 on p50_us: the cost of creating and removing
// a file, which every SELECT does in the zoom-in cache, moves between 0.1
// and 0.4 ms with the VM's idle state. A tighter bound would reject two
// sets of runs of the same commit (see README, "Steadiness").
var endToEndDefs = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
}

// perLayerDefs name the layer (package) first. Times come from the traced
// pass and the probes; counts are deltas of the program's own counters
// over the measured pass.
var perLayerDefs = []metricDef{
	{"server.self_us", "us", "lower", 0},
	{"server.admission_wait_us", "us", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"sql.parse_us", "us", "lower", 0},
	{"plan.select_us", "us", "lower", 0},
	{"plan.cache_hit_ratio", "ratio", "higher", 0},
	{"plan.index_path_share", "ratio", "higher", 0},
	{"exec.run_us", "us", "lower", 0},
	{"exec.op_rows_per_result_row", "ratio", "lower", 0},
	{"exec.merges_per_stmt", "1/stmt", "lower", 0},
	{"exec.curates_per_stmt", "1/stmt", "lower", 0},
	{"summary.merge_ns", "ns", "lower", 0},
	{"summary.combine_ns", "ns", "lower", 0},
	{"summary.project_ns", "ns", "lower", 0},
	{"summary.summarize_us", "us", "lower", 0},
	{"summary.digest_hit_ratio", "ratio", "higher", 0},
	{"summary.bytes_per_raw_byte", "ratio", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.bytes_per_stmt", "B/stmt", "lower", 0},
	{"wal.records_per_fsync", "ratio", "higher", 0},
	{"wal.fsync_s", "s", "lower", 0},
	{"wal.checkpoints", "count", "lower", 0},
	{"wal.checkpoint_s", "s", "lower", 0},
	{"storage.pool_hit_ratio", "ratio", "higher", 0},
	{"storage.evictions", "count", "lower", 0},
	{"storage.pages_read_per_stmt", "1/stmt", "lower", 0},
	{"storage.fetch_hit_ns", "ns", "lower", 0},
	{"storage.fetch_miss_us", "us", "lower", 0},
	{"storage.btree_seek_ns", "ns", "lower", 0},
	{"zoomin.hit_ratio", "ratio", "higher", 0},
	{"zoomin.puts", "count", "lower", 0},
	{"zoomin.evictions", "count", "lower", 0},
	{"zoomin.hit_us", "us", "lower", 0},
	{"zoomin.miss_us", "us", "lower", 0},
	{"engine.self_us", "us", "lower", 0},
	{"engine.read_slowdown_under_writes", "ratio", "lower", 0},
	{"trace_overhead", "ratio", "lower", 0},
}

// metric is one reported number. Spread is the metric's own run-to-run
// estimate inside this file: the quartile distance of its repetitions
// (time slices of the measured pass, or repeated set-ups and recoveries)
// as a share of their median.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// classStats is the latency of one statement class in the measured pass.
type classStats struct {
	Count   int     `json:"count"`
	P50US   float64 `json:"p50_us"`
	TailPct float64 `json:"tail_percentile"` // highest percentile with >= 10 samples beyond it
	TailUS  float64 `json:"tail_us"`
	MaxUS   float64 `json:"max_us"`
}

// layerTime is one row of the traced pass's breakdown: the layer's self
// time per statement of the workload.
type layerTime struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
}

type workloadResult struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Sizes struct {
		Birds       int   `json:"birds"`
		Sightings   int   `json:"sightings,omitempty"`
		Annotations int   `json:"annotations"`
		PoolFrames  int   `json:"pool_frames"`
		CacheBudget int64 `json:"zoom_cache_bytes"`
		WarmOps     int   `json:"warm_up_ops"`
		PassOps     int   `json:"measured_pass_ops"`
		TraceOps    int   `json:"traced_ops,omitempty"`
	} `json:"sizes"`
	Attempted     int      `json:"attempted"`
	Succeeded     int      `json:"succeeded"`
	Failed        int      `json:"failed"`
	Correct       bool     `json:"correct"`
	MismatchCount int      `json:"mismatches,omitempty"`
	Mismatches    []string `json:"first_mismatches,omitempty"`
	// Samples is the number of latencies behind p50_us and p95_us.
	Samples         int                   `json:"samples"`
	WallS           float64               `json:"measured_wall_s"`
	MaxUS           float64               `json:"max_us"`
	ReopenAfterRunS float64               `json:"reopen_after_run_s"`
	EndToEnd        map[string]metric     `json:"end_to_end"`
	Classes         map[string]classStats `json:"classes"`
	PerLayer        map[string]metric     `json:"per_layer,omitempty"`
	// Breakdown is the traced pass: layer self times, which sum to
	// RoundtripUS unless one is negative.
	Breakdown   []layerTime `json:"breakdown,omitempty"`
	RoundtripUS float64     `json:"traced_roundtrip_us,omitempty"`
}

func newResult(sp *spec, cfg *runConfig, c *corpus) *workloadResult {
	r := &workloadResult{Name: sp.name, Why: sp.why, EndToEnd: map[string]metric{}, Classes: map[string]classStats{}}
	r.Sizes.Birds, r.Sizes.Sightings = sp.birds, sp.sightings
	for _, b := range c.annotate {
		r.Sizes.Annotations += len(b)
	}
	r.Sizes.PoolFrames, r.Sizes.CacheBudget = sp.poolFrames, sp.cacheBudget
	if r.Sizes.CacheBudget == 0 {
		r.Sizes.CacheBudget = 4 << 20 // engine default
	}
	r.Sizes.WarmOps, r.Sizes.PassOps = sp.warmOps, passOps(sp, cfg)
	if cfg.trace {
		r.Sizes.TraceOps = sp.traceOps
	}
	return r
}

func (r *workloadResult) set(into map[string]metric, name string, value, spread float64) {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				into[name] = metric{Value: value, Unit: d.unit, Better: d.better, Bound: d.bound, Spread: spread}
				return
			}
		}
	}
	panic("undeclared metric " + name)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, micros(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// slices is how many equal parts the measured pass is cut into to
// estimate, inside one run, how much its throughput and latency vary.
const slices = 10

// endToEnd fills in throughput, latency and set-up time.
func (r *workloadResult) endToEnd(m passResult, setups []float64) {
	r.Succeeded, r.Failed = len(m.samples), m.failed
	r.Attempted = r.Succeeded + r.Failed
	r.Samples, r.WallS = len(m.samples), m.wall.Seconds()
	all := latencies(m.samples, nil)
	r.MaxUS = percentile(all, 100)

	part := m.wall / slices
	var tput, p50, p95 []float64
	for k, lo := 0, 0; k < slices && part > 0; k++ {
		hi := lo
		for hi < len(m.samples) && (k == slices-1 || m.samples[hi].end < time.Duration(k+1)*part) {
			hi++
		}
		tput = append(tput, float64(hi-lo)/part.Seconds())
		if hi > lo {
			lat := latencies(m.samples[lo:hi], nil)
			p50 = append(p50, percentile(lat, 50))
			p95 = append(p95, percentile(lat, 95))
		}
		lo = hi
	}
	r.set(r.EndToEnd, "throughput_ops_s", ratio(float64(r.Succeeded), r.WallS), spread(tput))
	r.set(r.EndToEnd, "p50_us", percentile(all, 50), spread(p50))
	r.set(r.EndToEnd, "p95_us", percentile(all, 95), spread(p95))
	r.set(r.EndToEnd, "setup_s", median(setups), spread(setups))

	for c := class(0); c < numClasses; c++ {
		lat := latencies(m.samples, func(s sample) bool { return s.cls == c })
		if len(lat) == 0 {
			continue
		}
		cs := classStats{Count: len(lat), P50US: percentile(lat, 50), MaxUS: percentile(lat, 100)}
		if cs.TailPct = tailPercentile(len(lat)); cs.TailPct > 0 {
			cs.TailUS = percentile(lat, cs.TailPct)
		}
		r.Classes[c.String()] = cs
	}
}

// counters is one reading of everything the program exposes through its
// metric registry, by exposition sample name.
type counters map[string]float64

func snapshot(db *engine.DB) counters {
	out := counters{}
	for _, s := range db.Metrics().Samples() {
		out[s.Name] = s.Value
	}
	return out
}

// sum adds every series of a family, or those whose labels contain match.
func (c counters) sum(family, match string) float64 {
	total := 0.0
	for name, v := range c {
		if name == family || (strings.HasPrefix(name, family+"{") && strings.Contains(name, match)) {
			total += v
		}
	}
	return total
}

// perLayer fills in the per-layer metrics: counter deltas over the
// measured pass, span medians of the traced pass, and the layer probes.
func (r *workloadResult) perLayer(e *env, rec *recorder, before, after counters, probeDir string) error {
	r.PerLayer = map[string]metric{}
	put := func(name string, v float64) { r.set(r.PerLayer, name, v, 0) }
	delta := func(family, match string) float64 { return after.sum(family, match) - before.sum(family, match) }
	stmts := float64(r.Attempted)
	hitRatio := func(hits, misses float64) float64 { return ratio(hits, hits+misses) }

	// ---- counts over the measured pass ----
	put("server.admission_wait_us", ratio(delta("insightnotes_admission_wait_seconds_sum", ""), stmts)*1e6)
	put("server.shed", delta("insightnotes_admission_shed_total", "")+delta("insightnotes_admission_rejected_total", ""))
	put("plan.cache_hit_ratio", hitRatio(delta("insightnotes_plancache_hits", ""), delta("insightnotes_plancache_misses", "")))
	put("plan.index_path_share", ratio(delta("insightnotes_plan_access_paths_total", `path="index`), delta("insightnotes_plan_access_paths_total", "")))
	put("exec.op_rows_per_result_row", ratio(delta("insightnotes_exec_op_rows_total", ""), delta("insightnotes_engine_result_rows_total", "")))
	put("exec.merges_per_stmt", ratio(delta("insightnotes_exec_op_merges_total", ""), stmts))
	put("exec.curates_per_stmt", ratio(delta("insightnotes_exec_op_curates_total", ""), stmts))
	put("summary.digest_hit_ratio", hitRatio(delta("insightnotes_summary_digest_hits_total", ""), delta("insightnotes_summary_digest_misses_total", "")))
	put("summary.bytes_per_raw_byte", ratio(after["insightnotes_engine_summary_bytes"], after["insightnotes_engine_annotation_bytes"]))
	put("wal.bytes_per_stmt", ratio(delta("insightnotes_wal_bytes_total", ""), stmts))
	put("wal.records_per_fsync", ratio(delta("insightnotes_wal_appends_total", ""), delta("insightnotes_wal_group_commit_batches_total", "")))
	put("wal.fsync_s", delta("insightnotes_wal_fsync_seconds_sum", ""))
	put("wal.checkpoints", delta("insightnotes_wal_checkpoints_total", ""))
	put("wal.checkpoint_s", delta("insightnotes_wal_checkpoint_seconds_sum", ""))
	poolMisses := delta("insightnotes_bufferpool_misses", "")
	put("storage.pool_hit_ratio", hitRatio(delta("insightnotes_bufferpool_hits", ""), poolMisses))
	put("storage.evictions", delta("insightnotes_bufferpool_evictions", ""))
	put("storage.pages_read_per_stmt", ratio(poolMisses, stmts))
	put("zoomin.hit_ratio", hitRatio(delta("insightnotes_zoomin_cache_hits_total", ""), delta("insightnotes_zoomin_cache_misses_total", "")))
	put("zoomin.puts", delta("insightnotes_zoomin_cache_puts_total", ""))
	put("zoomin.evictions", delta("insightnotes_zoomin_cache_evictions_total", ""))

	// ---- times from the traced pass ----
	// Per class, a layer's self time is the median of its span minus the
	// medians of the spans under it; server and engine are the remainders
	// of the round trip and of the embedded call. A workload's figure is
	// the classes' figures weighted by their share of the traced sample,
	// so the layers add up to the weighted round trip.
	dur := rec.durations()
	traced := 0
	for _, ds := range dur[spanRoundtrip] {
		traced += len(ds)
	}
	self := map[string]float64{}
	var overhead, slowdown, readShare float64
	for cname, rts := range dur[spanRoundtrip] {
		w := float64(len(rts)) / float64(traced)
		rt, eng := median(rts), median(dur[spanEngine][cname])
		r.RoundtripUS += w * rt
		self["server"] += w * (rt - eng)
		rest := eng
		for _, child := range engineChildren {
			d := median(dur[child][cname])
			self[child] += w * d
			rest -= d
		}
		self["engine"] += w * rest
		if cs, ok := r.Classes[cname]; ok && cs.P50US > 0 {
			overhead += w * rt / cs.P50US
			if c := classOf(cname); !c.write() {
				slowdown += w * cs.P50US / rt
				readShare += w
			}
		}
	}
	put("server.self_us", self["server"])
	put("engine.self_us", self["engine"])
	put("sql.parse_us", self[spanParse])
	put("plan.select_us", self[spanPlan])
	put("exec.run_us", self[spanExec])
	put("trace_overhead", overhead)
	put("engine.read_slowdown_under_writes", ratio(slowdown, readShare))
	var appends []float64
	for _, ds := range dur[spanWAL] {
		appends = append(appends, ds...)
	}
	put("wal.append_us", median(appends))
	r.Breakdown = []layerTime{{"server", self["server"]}, {"engine", self["engine"]}}
	for _, child := range engineChildren {
		r.Breakdown = append(r.Breakdown, layerTime{strings.SplitN(child, ".", 2)[0], self[child]})
	}

	// ---- probes ----
	mergeNS, combineNS, projectNS, summarizeUS := probeSummary(e)
	put("summary.merge_ns", mergeNS)
	put("summary.combine_ns", combineNS)
	put("summary.project_ns", projectNS)
	put("summary.summarize_us", summarizeUS)
	hitNS, missUS, seekNS, err := probeStorage(e, probeDir)
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	put("storage.fetch_hit_ns", hitNS)
	put("storage.fetch_miss_us", missUS)
	put("storage.btree_seek_ns", seekNS)
	zoomHit, zoomMiss := probeZoom(e)
	put("zoomin.hit_us", zoomHit)
	put("zoomin.miss_us", zoomMiss)
	return nil
}

func classOf(name string) class {
	for c, n := range classNames {
		if n == name {
			return class(c)
		}
	}
	panic("unknown class " + name)
}

// print renders one workload for a reader.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==  %s\n", r.Name, r.Why)
	fmt.Fprintf(w, "corpus: %d birds, %d sightings, %d annotations; pool %d frames, zoom cache %d B; warm-up %d ops, measured pass %d ops\n",
		r.Sizes.Birds, r.Sizes.Sightings, r.Sizes.Annotations, r.Sizes.PoolFrames, r.Sizes.CacheBudget, r.Sizes.WarmOps, r.Sizes.PassOps)
	fmt.Fprintf(w, "measured pass: %.2f s, attempted %d, succeeded %d, failed %d, %d latency samples, max %.0f us; re-open after the run %.3f s\n",
		r.WallS, r.Attempted, r.Succeeded, r.Failed, r.Samples, r.MaxUS, r.ReopenAfterRunS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end\tvalue\tunit\tbetter\tbound\tspread")
	for _, d := range endToEndDefs {
		m := r.EndToEnd[d.name]
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s\t%.2f\t%.3f\n", d.name, m.Value, m.Unit, m.Better, m.Bound, m.Spread)
	}
	tw.Flush()
	fmt.Fprintln(tw, "class\tcount\tp50_us\ttail\ttail_us\tmax_us")
	for c := class(0); c < numClasses; c++ {
		if cs, ok := r.Classes[c.String()]; ok {
			fmt.Fprintf(tw, "%s\t%d\t%.1f\tp%g\t%.1f\t%.1f\n", c, cs.Count, cs.P50US, cs.TailPct, cs.TailUS, cs.MaxUS)
		}
	}
	tw.Flush()
	if r.PerLayer != nil {
		fmt.Fprintln(tw, "per-layer\tvalue\tunit\tbetter")
		for _, d := range perLayerDefs {
			m := r.PerLayer[d.name]
			fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s\n", d.name, m.Value, m.Unit, m.Better)
		}
		tw.Flush()
		sum, negative := 0.0, false
		fmt.Fprint(w, "traced pass, self time per statement (us):")
		for _, l := range r.Breakdown {
			fmt.Fprintf(w, " %s=%.1f", l.Layer, l.SelfUS)
			sum += l.SelfUS
			negative = negative || l.SelfUS < 0
		}
		fmt.Fprintf(w, "\n  sum %.1f us = %.3f of the %.1f us round trip; negative layer: %v; trace_overhead %.3f\n",
			sum, ratio(sum, r.RoundtripUS), r.RoundtripUS, negative, r.PerLayer["trace_overhead"].Value)
	}
	if !r.Correct {
		fmt.Fprintf(w, "OUTPUT CHECKS FAILED: %d mismatches\n", r.MismatchCount)
		for _, m := range r.Mismatches {
			fmt.Fprintln(w, "  "+m)
		}
	}
}
