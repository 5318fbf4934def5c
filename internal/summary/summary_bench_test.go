package summary

import (
	"fmt"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/textmining"
)

// benchDigests precomputes n clusterable digests.
func benchDigests(b *testing.B, in *Instance, n int) []Digest {
	b.Helper()
	out := make([]Digest, n)
	themes := []string{
		"feeding on stonewort near the %d shore",
		"influenza infection observed in specimen %d",
		"wingspan measured at site %d",
	}
	for i := range out {
		a := annotation.Annotation{
			ID:   annotation.ID(i + 1),
			Text: fmt.Sprintf(themes[i%len(themes)], i),
		}
		out[i] = in.Summarize(a)
	}
	return out
}

func BenchmarkClusterAdd(b *testing.B) {
	in, err := NewClusterInstance("S", DefaultSimThreshold)
	if err != nil {
		b.Fatal(err)
	}
	digests := benchDigests(b, in, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := in.NewObject()
		for _, d := range digests[:64] {
			obj.Add(d)
		}
	}
}

func BenchmarkEnvelopeCloneBySize(b *testing.B) {
	in, err := NewClusterInstance("S", DefaultSimThreshold)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 128, 512} {
		digests := benchDigests(b, in, n)
		env := NewEnvelope()
		for _, d := range digests {
			env.Add(in, d, annotation.WholeRow(4))
		}
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.Clone()
			}
		})
	}
}

func BenchmarkEnvelopeMergeDisjoint(b *testing.B) {
	in, err := NewClusterInstance("S", DefaultSimThreshold)
	if err != nil {
		b.Fatal(err)
	}
	digests := benchDigests(b, in, 256)
	left := NewEnvelope()
	right := NewEnvelope()
	for i, d := range digests {
		if i < 128 {
			left.Add(in, d, annotation.WholeRow(4))
		} else {
			right.Add(in, d, annotation.WholeRow(4))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := left.Clone()
		l.Merge(right, 4)
	}
}

func BenchmarkEnvelopeProjectHalf(b *testing.B) {
	in, err := NewClusterInstance("S", DefaultSimThreshold)
	if err != nil {
		b.Fatal(err)
	}
	digests := benchDigests(b, in, 256)
	env := NewEnvelope()
	for i, d := range digests {
		env.Add(in, d, annotation.Col(i%4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := env.Clone()
		e.Project([]int{0, 1})
	}
}

// BenchmarkEnvelopeViewRemap is a scan with a projection over a stored
// three-instance envelope: a View of it, remapped through an operator's
// ColMap. colmap keeps every column but reorders them, so the view keeps
// the stored coverage and objects and records the map. drop then remaps it
// once more, dropping the column of the snippet object's only annotation:
// the view resolves both maps into its own coverage, copies its object list
// and drops that object.
func BenchmarkEnvelopeViewRemap(b *testing.B) {
	stored, _, _, _ := buildTupleEnvelope(b)
	c := annotation.Col
	reorder := NewColMap([]annotation.ColSet{c(3), c(2), c(1), c(0)})
	dropFirst := NewColMap([]annotation.ColSet{0, c(0), c(1), c(2)})
	b.Run("colmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stored.View().RemapColumns(reorder)
		}
	})
	b.Run("drop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := stored.View()
			v.RemapColumns(reorder)
			v.RemapColumns(dropFirst)
		}
	})
}

// BenchmarkSummarize is one annotation's digests under the three demo
// instance types — a trained four-label classifier, a cluster and a
// snippet instance — the unit of work summary maintenance and recovery
// repeat per annotation.
func BenchmarkSummarize(b *testing.B) {
	model, err := textmining.NewNaiveBayes([]string{"Behavior", "Disease", "Anatomy", "Other"})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range [][2]string{
		{"found eating stonewort near the shore", "Behavior"}, {"observed feeding at dawn in flocks", "Behavior"},
		{"signs of avian influenza infection", "Disease"}, {"lesions suggest avian pox virus", "Disease"},
		{"wingspan measured at 1.8 meters", "Anatomy"}, {"large body long neck orange bill", "Anatomy"},
		{"photo attached from trail camera", "Other"}, {"see the linked wikipedia article", "Other"},
	} {
		if err := model.Learn(s[0], s[1]); err != nil {
			b.Fatal(err)
		}
	}
	cls, err := NewClassifierInstance("C", model)
	if err != nil {
		b.Fatal(err)
	}
	clu, err := NewClusterInstance("S", DefaultSimThreshold)
	if err != nil {
		b.Fatal(err)
	}
	snp, err := NewSnippetInstance("T", DefaultSnippetSentences)
	if err != nil {
		b.Fatal(err)
	}
	a := annotation.Annotation{
		ID:    1,
		Text:  "Observed a large flock of Swan Geese feeding on stonewort beds near the north shore at dawn",
		Title: "Field report",
		Document: "Swan geese gathered on the stonewort beds every morning. Counts peaked at forty-one birds " +
			"near the north shore. Two juveniles showed feeding behavior identical to the adults.",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, in := range []*Instance{cls, clu, snp} {
			in.Summarize(a)
		}
	}
}
