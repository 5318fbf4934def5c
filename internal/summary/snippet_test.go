package summary

import (
	"strings"
	"testing"

	"insightnotes/internal/annotation"
)

const wikiDoc = "The swan goose is a large goose. It breeds in Mongolia and China. " +
	"The swan goose feeds on stonewort in shallow lakes. " +
	"Carl Linnaeus described the species in 1758. " +
	"Swan goose populations feed near lake shores on stonewort beds."

func TestSnippetObjectAddOnlyDocuments(t *testing.T) {
	in := snippetInstance(t, "TextSummary1")
	obj := in.NewObject()
	obj.Add(in.Summarize(ann(1, "plain comment, no document")))
	if obj.Len() != 0 {
		t.Errorf("non-document annotation produced an entry")
	}
	obj.Add(in.Summarize(docAnn(2, "Wikipedia: Swan Goose", wikiDoc)))
	if obj.Len() != 1 {
		t.Fatalf("Len = %d", obj.Len())
	}
	r := obj.Render()
	if !strings.Contains(r, "Wikipedia: Swan Goose") {
		t.Errorf("Render = %q", r)
	}
	// The snippet must be shorter than the document.
	so := obj.(*snippetObject)
	if e := so.entries[2]; len(e.Snippet) >= len(wikiDoc) {
		t.Errorf("snippet not shorter than document: %d vs %d", len(e.Snippet), len(wikiDoc))
	}
}

func TestSnippetRemoveDeletesEntry(t *testing.T) {
	in := snippetInstance(t, "T")
	obj := in.NewObject()
	obj.Add(in.Summarize(docAnn(1, "Experiment E", "Result one. Result two. Result three.")))
	obj.Add(in.Summarize(docAnn(2, "Wikipedia article", wikiDoc)))
	// The paper: "the wikipedia article in the snippet object is deleted".
	obj.Remove(func(id annotation.ID) bool { return id == 2 })
	if obj.Len() != 1 {
		t.Fatalf("Len = %d", obj.Len())
	}
	if strings.Contains(obj.Render(), "Wikipedia") {
		t.Errorf("deleted entry still rendered: %q", obj.Render())
	}
}

func TestSnippetMergeDedup(t *testing.T) {
	in := snippetInstance(t, "T")
	a := in.NewObject()
	b := in.NewObject()
	shared := in.Summarize(docAnn(1, "Shared doc", wikiDoc))
	a.Add(shared)
	b.Add(shared)
	b.Add(in.Summarize(docAnn(2, "Only B", "Unique content here. More unique content.")))
	a.MergeFrom(b)
	if a.Len() != 2 {
		t.Errorf("merged Len = %d, want 2", a.Len())
	}
}

func TestSnippetZoom(t *testing.T) {
	in := snippetInstance(t, "TextSummary1")
	obj := in.NewObject()
	obj.Add(in.Summarize(docAnn(5, "Experiment E", "E results. More E results.")))
	obj.Add(in.Summarize(docAnn(9, "Wikipedia article", wikiDoc)))
	// Entries are in member (id) order: index 1 → ann 5, index 2 → ann 9.
	ids, err := obj.Zoom(2)
	if err != nil || len(ids) != 1 || ids[0] != 9 {
		t.Errorf("Zoom(2) = %v, %v", ids, err)
	}
	if _, err := obj.Zoom(3); err == nil {
		t.Error("Zoom(3) succeeded")
	}
	labels := elementLabels(obj)
	if len(labels) != 2 || labels[0] != "Experiment E" {
		t.Errorf("element labels = %v", labels)
	}
}

func TestSnippetCloneAndEqual(t *testing.T) {
	in := snippetInstance(t, "T")
	obj := in.NewObject()
	obj.Add(in.Summarize(docAnn(1, "D", "Content sentence. Another sentence.")))
	cp := obj.Clone()
	if !obj.Equal(cp) {
		t.Error("clone not Equal")
	}
	cp.Remove(func(annotation.ID) bool { return true })
	if obj.Len() != 1 {
		t.Error("clone shares state")
	}
	if obj.Equal(cp) {
		t.Error("diverged snippet objects compare Equal")
	}
}

func TestSnippetUntitledRender(t *testing.T) {
	in := snippetInstance(t, "T")
	obj := in.NewObject()
	obj.Add(in.Summarize(docAnn(1, "", "Untitled doc body. Second sentence.")))
	r := obj.Render()
	if !strings.Contains(r, "Untitled doc body") {
		t.Errorf("Render = %q", r)
	}
	labels := elementLabels(obj)
	if len(labels) != 1 || labels[0] == "" {
		t.Errorf("element labels = %v", labels)
	}
}
