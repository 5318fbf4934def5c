// Command benchmark is the repository's benchmark: four workloads driven
// through the real TCP server against a durable engine, five end-to-end
// metrics each, and per-layer numbers from a traced pass. See README.md.
//
//	go run ./benchmark                       the whole suite, for a reader
//	go run ./benchmark -out new.json         ... and as a file
//	go run ./benchmark -compare old.json     ... compared with an earlier file
//	go run ./benchmark -aa                   the suite twice, compared with itself
//	go run ./benchmark -workload point_read -seed 3 -seconds 10 -trace 0
//	                                         one workload, one JSON line last (BENCHMARK.json)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// header makes two result files comparable, or visibly not.
type header struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Clients     int     `json:"clients"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"measured_seconds"`
	Quick       bool    `json:"quick,omitempty"`
	Setups      int     `json:"setup_repetitions"`
	Reopens     int     `json:"recovery_repetitions"`
	FlushPolicy string  `json:"flush_policy"`
	LoadModel   string  `json:"load_model"`
	Started     string  `json:"started"`
}

type report struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type options struct {
	runConfig
	workloads string
	traceFlag int // -1: not given (reader's mode); 0, 1: the driver's contract
	out       string
	compare   string
	aa        bool
}

// selectSpecs returns the workloads named in a comma-separated list, in
// the suite's order; all four for the empty list.
func selectSpecs(names string, quick bool) ([]spec, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	all := len(want) == 0
	var out []spec
	for _, sp := range specs {
		if !all && !want[sp.name] {
			continue
		}
		delete(want, sp.name)
		if quick {
			sp = sp.quick()
		}
		out = append(out, sp)
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown workload in %q (have point_read, join_scan, annotate_ingest, curation_mix)", names)
	}
	return out, nil
}

// runSuite runs the selected workloads one after another.
func runSuite(o *options, selected []spec, w io.Writer) (*report, error) {
	rep := &report{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: o.clients,
		GoVersion: runtime.Version(), Commit: gitCommit(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Setups: o.setups, Reopens: o.reopens,
		FlushPolicy: "fsync per commit, group commit, auto-checkpoint 8 MiB",
		LoadModel:   fmt.Sprintf("closed loop, %d clients, one connection each, one process", o.clients),
		Started:     time.Now().UTC().Format(time.RFC3339),
	}}
	h := rep.Header
	fmt.Fprintf(w, "insightnotes benchmark: nproc=%d GOMAXPROCS=%d clients=%d %s commit=%s seed=%d seconds=%g quick=%v\n",
		h.NProc, h.GOMAXPROCS, h.Clients, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Quick)
	fmt.Fprintf(w, "load: %s; flush policy: %s; set-up x%d, recovery x%d (medians)\n", h.LoadModel, h.FlushPolicy, h.Setups, h.Reopens)
	for _, sp := range selected {
		res, err := runWorkload(sp, o.runConfig)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		res.print(w)
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

func (rep *report) correct() bool {
	for _, r := range rep.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare prints one row per (metric, workload) of two reports: both
// values, the ratio and its base, and a verdict. A metric is worse when
// it moved the wrong way by more than its bound; otherwise it is
// unresolved when either file's own spread is wider than the bound, and
// ok when not. It reports whether any row is worse.
func compare(w io.Writer, old, new *report) (worse bool) {
	ho, hn := old.Header, new.Header
	if ho.NProc != hn.NProc || ho.GOMAXPROCS != hn.GOMAXPROCS || ho.Clients != hn.Clients || ho.Seconds != hn.Seconds || ho.Quick != hn.Quick {
		fmt.Fprintf(w, "WARNING: the two files were taken under different conditions (nproc %d/%d, GOMAXPROCS %d/%d, clients %d/%d, seconds %g/%g)\n",
			ho.NProc, hn.NProc, ho.GOMAXPROCS, hn.GOMAXPROCS, ho.Clients, hn.Clients, ho.Seconds, hn.Seconds)
	}
	fmt.Fprintf(w, "old: commit %s seed %d; new: commit %s seed %d\n", ho.Commit, ho.Seed, hn.Commit, hn.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tnew/old\tbound\tspread old\tspread new\tverdict")
	for _, rn := range new.Workloads {
		var ro *workloadResult
		for _, r := range old.Workloads {
			if r.Name == rn.Name {
				ro = r
			}
		}
		if ro == nil {
			continue
		}
		for _, d := range endToEndDefs {
			mo, mn := ro.EndToEnd[d.name], rn.EndToEnd[d.name]
			verdict := "ok"
			change := ratio(mn.Value, mo.Value) - 1
			if d.better == "higher" {
				change = -change
			}
			switch {
			case change > d.bound:
				verdict = "worse"
				worse = true
			case mo.Spread > d.bound || mn.Spread > d.bound:
				verdict = "unresolved" // not "unchanged": the runs vary more than the bound
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.3f\t%.2f\t%.3f\t%.3f\t%s\n",
				rn.Name, d.name, mo.Value, mn.Value, d.unit, ratio(mn.Value, mo.Value), d.bound, mo.Spread, mn.Spread, verdict)
		}
	}
	tw.Flush()
	return worse
}

// driverLine is the last line of standard output under the BENCHMARK.json
// contract: the end-to-end metrics with -trace 0, the per-layer ones with
// -trace 1.
func driverLine(r *workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if traced {
		src = r.PerLayer
	}
	metrics := map[string]value{}
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b)
}

func run(args []string, w io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "seed of the corpus and of every statement stream")
	fs.StringVar(&o.workloads, "workload", "", "comma-separated workloads to run (default: all four)")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured pass of each workload")
	fs.IntVar(&o.traceFlag, "trace", -1, "0: end-to-end metrics only, 1: also the traced pass; given with one -workload, the last output line is the BENCHMARK.json result object")
	fs.BoolVar(&o.quick, "quick", false, "tiny corpora and passes: the whole suite in seconds, numbers meaningless")
	fs.StringVar(&o.out, "out", "", "write the report as JSON to this file")
	fs.StringVar(&o.compare, "compare", "", "after the run, compare with this earlier report; exit non-zero if any metric is worse")
	fs.BoolVar(&o.aa, "aa", false, "run the suite twice and compare the two runs")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file, one JSON object per line (last workload wins)")
	fs.StringVar(&o.dir, "dir", "", "directory for the run's temporary data (default: the system's)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.clients = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(o.clients)
	o.trace = o.traceFlag != 0
	o.setups, o.reopens = 3, 3
	if o.quick {
		o.setups, o.reopens = 1, 1
		o.seconds = min(o.seconds, 0.4)
	}
	selected, err := selectSpecs(o.workloads, o.quick)
	if err != nil {
		return err
	}
	driver := o.traceFlag >= 0
	if driver && len(selected) != 1 {
		return errors.New("-trace needs exactly one -workload")
	}

	rep, err := runSuite(&o, selected, w)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
	}
	worse := false
	if o.aa {
		fmt.Fprintln(w, "\n== second run of the same commit (A/A) ==")
		again, err := runSuite(&o, selected, w)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\n== A/A comparison ==")
		worse = compare(w, rep, again) || !again.correct()
	}
	if o.compare != "" {
		old, err := readReport(o.compare)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n== comparison with %s ==\n", o.compare)
		worse = compare(w, old, rep) || worse
	}
	if driver {
		fmt.Fprintln(w, driverLine(rep.Workloads[0], o.traceFlag == 1))
	}
	if !rep.correct() {
		return errors.New("output checks failed")
	}
	if worse {
		return errors.New("at least one end-to-end metric is worse beyond its bound")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}
