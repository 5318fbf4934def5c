package summary

import (
	"fmt"
	"slices"

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
	entries []snippetEntry // sorted by annotation id
}

type snippetEntry struct {
	id      annotation.ID
	Title   string
	Snippet string
	// plain is set when both Title and Snippet are plain (see isPlain):
	// derived where the entry is made, never encoded.
	plain bool
}

func newSnippetEntry(id annotation.ID, title, snippet string) snippetEntry {
	return snippetEntry{id, title, snippet, isPlain(title) && isPlain(snippet)}
}

func snippetID(e snippetEntry) annotation.ID { return e.id }

func newSnippetObject(in *Instance) *snippetObject {
	return &snippetObject{inst: in}
}

// Instance implements Object.
func (s *snippetObject) Instance() *Instance { return s.inst }

// Contains implements Object.
func (s *snippetObject) Contains(id annotation.ID) bool {
	_, ok := search(s.entries, id, snippetID)
	return ok
}

// Add implements Object.
func (s *snippetObject) Add(d Digest) {
	if !d.HasDoc {
		return
	}
	if i, ok := search(s.entries, d.Ann, snippetID); !ok {
		s.entries = slices.Insert(s.entries, i, newSnippetEntry(d.Ann, d.Title, d.Snippet))
	}
}

// Remove implements Object — the paper's "the wikipedia article in the
// snippet object is deleted" projection behaviour.
func (s *snippetObject) Remove(ids []annotation.ID) Object {
	kept := without(s.entries, ids, snippetID, !s.isShared())
	if len(kept) == len(s.entries) {
		return s
	}
	if s.isShared() {
		return &snippetObject{inst: s.inst, entries: kept}
	}
	s.entries = kept
	return s
}

// MergeFrom implements Object.
func (s *snippetObject) MergeFrom(others ...Object) Object {
	lists := make([][]snippetEntry, 1, len(others)+1)
	lists[0] = s.entries
	for _, other := range others {
		o, ok := other.(*snippetObject)
		if !ok || o.inst.Name != s.inst.Name {
			panic(fmt.Sprintf("summary: merge of incompatible objects (instance %q)", s.inst.Name))
		}
		lists = append(lists, o.entries)
	}
	entries := mergeSorted(lists, snippetID, nil)
	if s.isShared() {
		return &snippetObject{inst: s.inst, entries: entries}
	}
	s.entries = entries
	return s
}

// Clone implements Object.
func (s *snippetObject) Clone() Object {
	return &snippetObject{inst: s.inst, entries: slices.Clone(s.entries)}
}

// Members implements Object.
func (s *snippetObject) Members() []annotation.ID { return idsOf(s.entries, snippetID) }

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
	for i, e := range s.entries {
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
func (s *snippetObject) Render() string { return rendered(&s.shown, s) }

func (s *snippetObject) appendRender(dst []byte) []byte {
	dst = append(dst, s.inst.Name...)
	dst = append(dst, " ["...)
	for i, e := range s.entries {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		if e.Title != "" {
			dst = appendPlainOrQuoted(dst, e.Title, e.plain)
			dst = append(dst, ": "...)
		}
		dst = appendPlainOrQuoted(dst, e.Snippet, e.plain)
	}
	return append(dst, ']')
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
	return ok && o.inst.Name == s.inst.Name && slices.Equal(o.entries, s.entries)
}
