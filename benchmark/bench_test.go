package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickSuite runs the whole suite with -quick and checks the report's
// shape: every workload carries every end-to-end and per-layer metric with
// its unit and direction, nothing failed, the output checks passed, and
// the names are the ones BENCHMARK.json declares.
func TestQuickSuite(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) || len(decl.EndToEnd) != len(endToEndDefs) || len(decl.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d, %d",
			len(decl.Workloads), len(decl.EndToEnd), len(decl.PerLayer), len(specs), len(endToEndDefs), len(perLayerDefs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, specs[i].name)
		}
	}
	for i, m := range decl.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
	for i, m := range decl.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}

	out := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{"-quick", "-dir", t.TempDir(), "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Header
	if h.NProc < 1 || h.GOMAXPROCS != h.Clients || h.GoVersion == "" || h.Commit == "" || h.FlushPolicy == "" {
		t.Errorf("incomplete header: %+v", h)
	}
	if len(rep.Workloads) != len(specs) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(specs))
	}
	for i, r := range rep.Workloads {
		if r.Name != specs[i].name || !nameRE.MatchString(r.Name) {
			t.Errorf("workload %d is %q", i, r.Name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.Succeeded != r.Samples {
			t.Errorf("%s: correct=%v attempted=%d failed=%d samples=%d: %v", r.Name, r.Correct, r.Attempted, r.Failed, r.Samples, r.Mismatches)
		}
		check := func(kind string, got map[string]metric, defs []metricDef) {
			if len(got) != len(defs) {
				t.Errorf("%s: %d %s metrics, want %d", r.Name, len(got), kind, len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.name]
				if !ok || m.Unit != d.unit || m.Better != d.better || !nameRE.MatchString(d.name) {
					t.Errorf("%s: %s metric %s is %+v (present=%v)", r.Name, kind, d.name, m, ok)
				}
				if kind == "end-to-end" && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want a positive number", r.Name, d.name, m.Value)
				}
			}
		}
		check("end-to-end", r.EndToEnd, endToEndDefs)
		check("per-layer", r.PerLayer, perLayerDefs)
		for _, l := range r.Breakdown {
			if l.SelfUS < 0 {
				t.Logf("%s: layer %s has negative self time %.1f us (tiny -quick sample)", r.Name, l.Layer, l.SelfUS)
			}
		}
	}
	if compare(io.Discard, rep, rep) {
		t.Error("a report compared with itself is worse")
	}
}

func TestSelectSpecs(t *testing.T) {
	for names, want := range map[string]int{"": 4, "point_read": 1, "curation_mix, join_scan": 2} {
		got, err := selectSpecs(names, false)
		if err != nil || len(got) != want {
			t.Errorf("selectSpecs(%q) = %d workloads, %v; want %d", names, len(got), err, want)
		}
	}
	if _, err := selectSpecs("point_read,nope", false); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}
