package summary

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"insightnotes/internal/annotation"
)

// TestCombineInOnePassEqualsFolding: Combine(others...) in one call, one
// k-way pass over every input, gives the envelope that folding the same
// inputs in one Combine at a time gives — for every object type, with
// MergeBySimilarity off (the connected-component join) and on (the
// sequential fold). The inputs are k rows of four annotations each, in
// four shapes: disjoint runs of ids, ids interleaved round-robin across
// the rows, every row holding the same ids, and rows whose last id is the
// next row's first, so that a group of one input bridges to a group of
// the next. Both results are also checked against the map-based model
// (model_test.go) merged the same way.
func TestCombineInOnePassEqualsFolding(t *testing.T) {
	const perRow = 4
	shapes := []struct {
		name string
		ids  func(k, row int) []annotation.ID
	}{
		{"runs", func(k, row int) []annotation.ID { return span(row*perRow+1, perRow, 1) }},
		{"interleaved", func(k, row int) []annotation.ID { return span(row+1, perRow, k) }},
		{"duplicated", func(k, row int) []annotation.ID { return span(1, perRow, 1) }},
		{"bridges", func(k, row int) []annotation.ID { return span(row*(perRow-1)+1, perRow, 1) }},
	}
	for _, bySim := range []bool{false, true} {
		for _, k := range []int{2, 3, 17, 64} {
			for _, shape := range shapes {
				t.Run(fmt.Sprintf("similarity=%v/k=%d/%s", bySim, k, shape.name), func(t *testing.T) {
					cls, clu, snp := classifierInstance(t, "C"), clusterInstance(t, "S"), snippetInstance(t, "T")
					clu.MergeBySimilarity = bySim
					rows, models := make([]*Envelope, k), make([]*modelEnv, k)
					for r := range rows {
						rows[r], models[r] = NewEnvelope(), newModelEnv(clu)
						for _, id := range shape.ids(k, r) {
							a := ann(id, combineText(id))
							if id%5 == 0 {
								a.Title, a.Document = fmt.Sprintf("report %d", id), wikiDoc
							}
							for _, in := range []*Instance{cls, clu, snp} {
								d, cols := in.Summarize(a), annotation.Col(int(id)%3)
								rows[r].Add(in, d, cols)
								models[r].add(in, d, cols)
							}
						}
					}
					once := rows[0].Clone()
					views := make([]*Envelope, 0, k-1)
					for _, r := range rows[1:] {
						views = append(views, r.View())
					}
					once.Combine(views...)
					folded := rows[0].Clone()
					for _, r := range rows[1:] {
						folded.Combine(r.View())
					}
					m := models[0].clone()
					for _, om := range models[1:] {
						m.merge(om.clone(), 0)
					}
					if err := m.check(once); err != nil {
						t.Fatalf("one pass: %v", err)
					}
					if !once.Equal(folded) || once.Render() != folded.Render() {
						t.Fatalf("one pass:\n%s\nfolded:\n%s", describeEnvelope(once), describeEnvelope(folded))
					}
					for _, name := range once.InstanceNames() {
						if a, b := once.Object(name).Elements(), folded.Object(name).Elements(); !sameElements(a, b) {
							t.Errorf("%s elements: one pass %v, folded %v", name, a, b)
						}
					}
					if want := len(distinctIDs(rows)); once.Len() != want {
						t.Errorf("combined %d annotations, the rows hold %d", once.Len(), want)
					}
				})
			}
		}
	}
}

// TestCombineScalesWithABridgedComponent: rows whose last annotation is
// the next row's first bridge every row's cluster group into one component,
// fused in one step. Its candidate list is trimmed as each group's is
// appended, so combining 4N rows costs about 4× combining N; a list built
// from every group's candidates and trimmed once at the end, whose repeats
// are found by a quadratic scan, costs about 16×. The bound is 8×, on the
// fastest of five runs.
func TestCombineScalesWithABridgedComponent(t *testing.T) {
	const n = 2000
	clu := clusterInstance(t, "S")
	var took [2]time.Duration
	for i, k := range []int{n, 4 * n} {
		rows := make([]*Envelope, k)
		for r := range rows {
			rows[r] = NewEnvelope()
			for _, id := range span(2*r+1, 3, 1) {
				addAnn(rows[r], clu, ann(id, behaviorText(int(id))), annotation.Col(0))
			}
		}
		for run := 0; run < 5; run++ {
			acc := rows[0].Clone()
			views := make([]*Envelope, 0, k-1)
			for _, r := range rows[1:] {
				views = append(views, r.View())
			}
			runtime.GC()
			start := time.Now()
			acc.Combine(views...)
			if d := time.Since(start); run == 0 || d < took[i] {
				took[i] = d
			}
			if g := acc.Object("S").(*clusterObject).groups; len(g) != 1 || len(g[0].members) != 2*k+1 || len(g[0].candidates) != repCandidates {
				t.Fatalf("%d bridged rows combined to %d groups", k, len(g))
			}
		}
	}
	t.Logf("%v at %d rows, %v at %d (%.1f×)", took[0], n, took[1], 4*n, float64(took[1])/float64(took[0]))
	if took[1] > 8*took[0] {
		t.Errorf("combining %d bridged rows took %v, %d rows %v (%.1f×, want ≤ 8×)", n, took[0], 4*n, took[1], float64(took[1])/float64(took[0]))
	}
}

// span returns n ids from first, step apart.
func span(first, n, step int) []annotation.ID {
	out := make([]annotation.ID, n)
	for i := range out {
		out[i] = annotation.ID(first + i*step)
	}
	return out
}

// combineText gives ids three themes, so that each row's cluster object
// holds several groups and rows sharing an id share a group.
func combineText(id annotation.ID) string {
	switch id % 3 {
	case 0:
		return behaviorText(int(id))
	case 1:
		return diseaseText(int(id))
	}
	return fmt.Sprintf("wing anatomy measurement notes from site %d", id)
}

func distinctIDs(rows []*Envelope) map[annotation.ID]bool {
	out := map[annotation.ID]bool{}
	for _, r := range rows {
		r.EachCover(func(id annotation.ID, _ annotation.ColSet) { out[id] = true })
	}
	return out
}

// TestCurateDropsOnlyUncoveredAnnotations: Curate removes an annotation
// whose coverage misses every kept column, from the coverage and every
// object, exactly as RemapColumns with the kept columns mapped to
// themselves does; a view that loses nothing stays shared and costs no
// allocation.
func TestCurateDropsOnlyUncoveredAnnotations(t *testing.T) {
	e, _, _, _ := buildTupleEnvelope(t) // annotation 3 on column 2, 4 on column 3
	keep := annotation.Col(0) | annotation.Col(1) | annotation.Col(3)
	view := e.View()
	if n := testing.AllocsPerRun(20, func() { view.Curate(keep | annotation.Col(2)) }); n != 0 {
		t.Errorf("a Curate that drops nothing allocated %.0f times", n)
	}
	if !view.shared.isShared() {
		t.Error("a Curate that drops nothing made the view private")
	}
	want := e.Clone()
	want.RemapColumns(NewColMap([]annotation.ColSet{annotation.Col(0), annotation.Col(1), 0, annotation.Col(3)}))
	before := describeEnvelope(e)
	view.Curate(keep)
	if !view.Equal(want) || view.Render() != want.Render() {
		t.Errorf("Curate gives\n%s\nwant\n%s", describeEnvelope(view), describeEnvelope(want))
	}
	if got := view.CoverOf(3); got != 0 {
		t.Errorf("annotation 3 still covers %v", got)
	}
	if describeEnvelope(e) != before {
		t.Error("curating a view changed the envelope it was taken of")
	}
}

// TestViewRemapDefersColumns: a View remapped through a map that drops no
// annotation keeps the stored coverage list, records the map and latches
// the stored objects shared (so they render memoised), with no allocation;
// so does a second such remap, the Project a plan puts above a scan, which
// records the two maps' composition, built once. The views read as the
// eagerly remapped envelope does.
func TestViewRemapDefersColumns(t *testing.T) {
	stored, _, _, _ := buildTupleEnvelope(t)
	c := annotation.Col
	want := stored.Clone()
	const runs = 50
	views := make([]*Envelope, runs+1) // AllocsPerRun calls once more to warm up
	for i := range views {
		views[i] = stored.View()
	}
	for _, m := range []*ColMap{
		NewColMap([]annotation.ColSet{c(3), c(2) | c(0), c(1), c(0)}),
		NewColMap([]annotation.ColSet{c(0), c(1), c(0), 0}), // drops column 3, but no annotation
	} {
		n := 0
		if a := testing.AllocsPerRun(runs, func() { views[n].RemapColumns(m); n++ }); a != 0 {
			t.Errorf("a remap that drops nothing allocated %.0f times", a)
		}
		want.RemapColumns(m)
		for _, v := range views {
			if v.cmap == nil || &v.cover[0] != &stored.cover[0] || !v.Equal(want) || v.Render() != want.Render() {
				t.Fatalf("view reads\n%s\nwant\n%s", describeEnvelope(v), describeEnvelope(want))
			}
		}
	}
	for i := range stored.NumObjects() {
		if _, obj := stored.ObjectAt(i); !obj.isShared() {
			t.Errorf("stored object %d not latched shared", i)
		}
	}
}

// TestCombineAppliesMapsWithoutCopies: Combine over inputs holding
// different pending maps (and none) applies each in its one pass: it
// allocates exactly what the same Combine over the inputs remapped
// beforehand does, and gives the same envelope.
func TestCombineAppliesMapsWithoutCopies(t *testing.T) {
	cls, clu, snp := classifierInstance(t, "C"), clusterInstance(t, "S"), snippetInstance(t, "T")
	c := annotation.Col
	cmaps := []*ColMap{
		NewColMap([]annotation.ColSet{c(1), c(0), c(2)}),
		nil,
		NewColMap([]annotation.ColSet{c(2), c(2), c(0) | c(1)}),
		NewColMap([]annotation.ColSet{c(0), c(1), c(2)}),
	}
	const k = 8
	stored := make([]*Envelope, k)
	for r := range stored {
		stored[r] = NewEnvelope()
		for _, id := range span(r*3+1, 6, 1) { // overlapping runs
			a := ann(id, combineText(id))
			for _, in := range []*Instance{cls, clu, snp} {
				stored[r].Add(in, in.Summarize(a), c(int(id)%3))
			}
		}
	}
	// inputs returns k views: each remapped through its map, left pending
	// or resolved at once.
	inputs := func(pending bool) []*Envelope {
		out := make([]*Envelope, k)
		for r, s := range stored {
			m := cmaps[r%len(cmaps)]
			if pending {
				out[r] = s.View()
			} else {
				out[r] = s.Clone()
			}
			if m != nil {
				out[r].RemapColumns(m)
			}
			if !pending {
				out[r] = out[r].View()
			}
			if (out[r].cmap != nil) != (pending && m != nil) {
				t.Fatalf("input %d: pending map %p", r, out[r].cmap)
			}
		}
		return out
	}
	const runs = 20
	allocs := map[bool]float64{}
	var got [2]*Envelope
	for i, pending := range []bool{true, false} {
		sets := make([][]*Envelope, runs+1)
		for j := range sets {
			sets[j] = inputs(pending)
		}
		n := 0
		allocs[pending] = testing.AllocsPerRun(runs, func() { sets[n][0].Combine(sets[n][1:]...); n++ })
		got[i] = sets[0][0]
	}
	if allocs[true] != allocs[false] {
		t.Errorf("Combine over pending maps allocated %.0f times, over remapped inputs %.0f", allocs[true], allocs[false])
	}
	if !got[0].Equal(got[1]) || got[0].Render() != got[1].Render() {
		t.Errorf("Combine over pending maps gives\n%s\nwant\n%s", describeEnvelope(got[0]), describeEnvelope(got[1]))
	}
}
