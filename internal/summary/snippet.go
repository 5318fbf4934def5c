package summary

import (
	"fmt"
	"strings"

	"insightnotes/internal/annotation"
)

// snippetObject summarizes a tuple's document-bearing annotations as
// extracted snippets — the paper's TextSummary-style objects, e.g.
// `TextSummary1 ["Experiment E …", "Wikipedia article …"]`.
//
// Annotations without an attached document contribute nothing. Per entry it
// retains the annotation id, document title, and extracted snippet; the
// full document stays in the raw store and is fetched only by zoom-in.
type snippetObject struct {
	sharedFlag
	shown   presentation
	inst    *Instance
	entries map[annotation.ID]snippetEntry
}

type snippetEntry struct {
	Title   string
	Snippet string
}

func newSnippetObject(in *Instance) *snippetObject {
	return &snippetObject{inst: in, entries: make(map[annotation.ID]snippetEntry)}
}

// Instance implements Object.
func (s *snippetObject) Instance() *Instance { return s.inst }

// Contains implements Object.
func (s *snippetObject) Contains(id annotation.ID) bool {
	_, ok := s.entries[id]
	return ok
}

// Add implements Object.
func (s *snippetObject) Add(d Digest) {
	if !d.HasDoc || s.Contains(d.Ann) {
		return
	}
	s.entries[d.Ann] = snippetEntry{Title: d.Title, Snippet: d.Snippet}
}

// Remove implements Object — the paper's "the wikipedia article in the
// snippet object is deleted" projection behaviour.
func (s *snippetObject) Remove(drop func(annotation.ID) bool) {
	for id := range s.entries {
		if drop(id) {
			delete(s.entries, id)
		}
	}
}

// MergeFrom implements Object.
func (s *snippetObject) MergeFrom(other Object) {
	o, ok := other.(*snippetObject)
	if !ok || o.inst.Name != s.inst.Name {
		panic(fmt.Sprintf("summary: merge of incompatible objects (instance %q)", s.inst.Name))
	}
	for id, e := range o.entries {
		if !s.Contains(id) {
			s.entries[id] = e
		}
	}
}

// Clone implements Object.
func (s *snippetObject) Clone() Object {
	cp := &snippetObject{
		inst:    s.inst,
		entries: make(map[annotation.ID]snippetEntry, len(s.entries)),
	}
	for id, e := range s.entries {
		cp.entries[id] = e
	}
	return cp
}

// Members implements Object.
func (s *snippetObject) Members() []annotation.ID { return sortedIDs(mapKeys(s.entries)) }

// Len implements Object.
func (s *snippetObject) Len() int { return len(s.entries) }

// Elements implements Object: one element per snippet in member order,
// labelled by the document title (the snippet when untitled) and resolving
// to that single document annotation (the paper's "retrieves the complete
// Wikipedia article attached to r1").
func (s *snippetObject) Elements() []Element {
	return memoised(&s.shown.elems, s.isShared(), s.elements)
}

func (s *snippetObject) elements() []Element {
	ids := s.Members()
	out := make([]Element, len(ids))
	for i, id := range ids {
		e := s.entries[id]
		label := e.Title
		if label == "" {
			label = e.Snippet
		}
		out[i] = Element{Label: label, IDs: ids[i : i+1 : i+1]}
	}
	return out
}

// Zoom implements Object.
func (s *snippetObject) Zoom(index int) ([]annotation.ID, error) { return zoom(s, index) }

// Render implements Object.
func (s *snippetObject) Render() string { return memoised(&s.shown.text, s.isShared(), s.render) }

func (s *snippetObject) render() string {
	var b strings.Builder
	b.WriteString(s.inst.Name)
	b.WriteString(" [")
	for i, id := range s.Members() {
		if i > 0 {
			b.WriteString(", ")
		}
		e := s.entries[id]
		if e.Title != "" {
			writeQuoted(&b, e.Title)
			b.WriteString(": ")
		}
		writeQuoted(&b, e.Snippet)
	}
	b.WriteString("]")
	return b.String()
}

// ApproxBytes implements Object.
func (s *snippetObject) ApproxBytes() int {
	n := 0
	for _, e := range s.entries {
		n += 8 + len(e.Title) + len(e.Snippet)
	}
	return n
}

// Equal implements Object.
func (s *snippetObject) Equal(other Object) bool {
	o, ok := other.(*snippetObject)
	if !ok || o.inst.Name != s.inst.Name || len(o.entries) != len(s.entries) {
		return false
	}
	for id, e := range s.entries {
		if oe, ok := o.entries[id]; !ok || oe != e {
			return false
		}
	}
	return true
}
