package summary

import (
	"fmt"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/textmining"
)

// birdModel trains the demo paper's four-class ornithological classifier.
func birdModel(t testing.TB) *textmining.NaiveBayes {
	t.Helper()
	nb, err := textmining.NewNaiveBayes([]string{"Behavior", "Disease", "Anatomy", "Other"})
	if err != nil {
		t.Fatal(err)
	}
	corpus := []struct{ text, label string }{
		{"found eating stonewort near the shore", "Behavior"},
		{"observed feeding at dawn in flocks", "Behavior"},
		{"aggressive display toward intruders during nesting", "Behavior"},
		{"migrates south every october", "Behavior"},
		{"signs of avian influenza infection", "Disease"},
		{"lesions on the beak suggest avian pox virus", "Disease"},
		{"high parasite load with visible mites", "Disease"},
		{"lethargic sick bird likely infected", "Disease"},
		{"wingspan measured at 1.8 meters", "Anatomy"},
		{"large body long neck orange bill", "Anatomy"},
		{"white plumage with black wing tips", "Anatomy"},
		{"weight around 3 kilograms short tail", "Anatomy"},
		{"photo attached from the trail camera", "Other"},
		{"duplicate of an earlier record", "Other"},
		{"see the linked wikipedia article", "Other"},
		{"entered by volunteer data team", "Other"},
	}
	for _, c := range corpus {
		if err := nb.Learn(c.text, c.label); err != nil {
			t.Fatal(err)
		}
	}
	return nb
}

func classifierInstance(t testing.TB, name string) *Instance {
	t.Helper()
	in, err := NewClassifierInstance(name, birdModel(t))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func clusterInstance(t testing.TB, name string) *Instance {
	t.Helper()
	in, err := NewClusterInstance(name, DefaultSimThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func snippetInstance(t testing.TB, name string) *Instance {
	t.Helper()
	in, err := NewSnippetInstance(name, DefaultSnippetSentences)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// ann builds a raw annotation with the given id and text.
func ann(id annotation.ID, text string) annotation.Annotation {
	return annotation.Annotation{ID: id, Text: text, Author: "tester", Created: 1430000000}
}

// docAnn builds a document-bearing annotation.
func docAnn(id annotation.ID, title, doc string) annotation.Annotation {
	return annotation.Annotation{ID: id, Title: title, Document: doc, Author: "tester"}
}

// addAnn summarizes a into the envelope under instance in, covering cols.
func addAnn(e *Envelope, in *Instance, a annotation.Annotation, cols annotation.ColSet) {
	e.Add(in, in.Summarize(a), cols)
}

// behaviorTexts and diseaseTexts generate clusterable annotation content.
func behaviorText(i int) string {
	return fmt.Sprintf("observed feeding on stonewort near the lake shore site %d", i)
}

func diseaseText(i int) string {
	return fmt.Sprintf("signs of avian influenza infection in specimen %d", i)
}

// elementLabels lists the labels of obj's zoomable elements in index order.
func elementLabels(obj Object) []string {
	els := obj.Elements()
	out := make([]string, len(els))
	for i, el := range els {
		out[i] = el.Label
	}
	return out
}
