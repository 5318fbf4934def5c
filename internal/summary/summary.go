// Package summary implements the core contribution of the paper: annotation
// summaries as first-class objects that the query engine manipulates
// instead of raw annotations.
//
// The package mirrors the paper's three-level hierarchy (Figure 4):
//
//   - Summary types (level 1): Classifier, Cluster, and Snippet are built
//     into the engine (TypeName constants).
//   - Summary instances (level 2): Instance values configured by admins —
//     the classification model and labels, clustering threshold, snippet
//     length — plus the AnnotationInvariant/DataInvariant properties that
//     drive the summarize-once optimization.
//   - Summary objects (level 3): per-tuple Object values produced by an
//     instance, carried through the query pipeline inside an Envelope.
//
// Objects support the extended-operator algebra of Section 2.1: Remove (the
// projection curation that drops the effect of annotations attached only to
// projected-out columns), MergeFrom (the join/group/distinct combination
// with shared-annotation double-count avoidance), and Elements (resolving
// the summary elements back to raw annotation ids for zoom-in queries).
//
// Design note: an Object stores, per member annotation, only a compact
// digest — a class-label index, a pruned term vector and short preview, or
// an extracted snippet — never the raw text or document. This is what makes
// projection and merge computable "without retrieving the raw annotations"
// while keeping the object orders of magnitude smaller than its raw
// annotations (benchmarked in E1).
package summary

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"insightnotes/internal/annotation"
	"insightnotes/internal/textmining"
)

// TypeName names a built-in summary type (level 1 of the hierarchy).
type TypeName string

// The three summary families supported by the engine (§2 of the paper).
const (
	TypeClassifier TypeName = "Classifier"
	TypeCluster    TypeName = "Cluster"
	TypeSnippet    TypeName = "Snippet"
)

// ParseTypeName validates a user-supplied type name.
func ParseTypeName(s string) (TypeName, error) {
	switch TypeName(s) {
	case TypeClassifier, TypeCluster, TypeSnippet:
		return TypeName(s), nil
	}
	return "", fmt.Errorf("summary: unknown summary type %q (want Classifier, Cluster, or Snippet)", s)
}

// Properties are the instance flags that control maintenance optimizations
// (Figure 4). AnnotationInvariant: summarizing a new annotation on tuple t
// does not depend on t's existing annotations. DataInvariant: it does not
// depend on t's data values. When both hold, the engine summarizes an
// annotation once even if it is attached to many tuples.
type Properties struct {
	AnnotationInvariant bool `json:"annotation_invariant"`
	DataInvariant       bool `json:"data_invariant"`
}

// SummarizeOnce reports whether the summarize-once optimization applies.
func (p Properties) SummarizeOnce() bool { return p.AnnotationInvariant && p.DataInvariant }

// Digest is the per-annotation summarization result an instance computes
// from a raw annotation — the only thing summary objects retain about it.
// Which fields are populated depends on the instance type.
type Digest struct {
	Ann annotation.ID

	// Classifier: index of the assigned class label.
	LabelIndex int

	// Cluster: pruned term vector and a short preview used if the
	// annotation is elected group representative.
	Vector  textmining.Vector
	Preview string

	// Snippet: extracted snippet of the attached document (empty when the
	// annotation carries no document).
	Title   string
	Snippet string
	HasDoc  bool
}

// Object is one summary object (level 3): the summarization of the
// annotations of a single tuple under a single instance.
type Object interface {
	// Instance returns the instance that produced this object.
	Instance() *Instance
	// Contains reports whether annotation id already contributes to the
	// object (the double-count guard used during merges).
	Contains(id annotation.ID) bool
	// Add incorporates one annotation digest. Adding an already-contained
	// annotation is a no-op.
	Add(d Digest)
	// Remove retracts every member annotation for which drop returns true,
	// updating counts, centroids, and elected representatives.
	Remove(drop func(annotation.ID) bool)
	// MergeFrom combines other (an object of the same instance) into the
	// receiver. Members already present are not double counted.
	MergeFrom(other Object)
	// Clone returns a deep copy sharing only the immutable instance.
	Clone() Object
	// Members returns the contributing annotation ids, sorted ascending.
	Members() []annotation.ID
	// Len returns the number of contributing annotations.
	Len() int
	// Elements lists the zoomable elements — class labels, cluster groups,
	// or snippet positions — in the 1-based index order ZoomIn commands
	// use, each with its display label and its sorted annotation ids. The
	// canonical order is computed once per call.
	Elements() []Element
	// Zoom resolves one 1-based element index to the raw annotation ids
	// behind it: Elements()[index-1].IDs, or an error when out of range.
	Zoom(index int) ([]annotation.ID, error)
	// Render formats the object in the paper's display style.
	Render() string
	// ApproxBytes estimates the object's in-memory size, the numerator of
	// the E1 compression measurements.
	ApproxBytes() int
	// Equal reports deep semantic equality with another object, used to
	// verify the plan-equivalence theorems (E3).
	Equal(other Object) bool

	// share latches the object as referenced by more than one envelope;
	// isShared reports it. A shared object is immutable: an envelope
	// replaces it with its Clone before the first call that changes it.
	share()
	isShared() bool
}

// Element is one zoomable element of a summary object.
type Element struct {
	Label string
	IDs   []annotation.ID
}

// zoom is the shared body of Object.Zoom.
func zoom(o Object, index int) ([]annotation.ID, error) {
	els := o.Elements()
	if index < 1 || index > len(els) {
		in := o.Instance()
		return nil, fmt.Errorf("summary: %s %q has no element %d (1..%d)", in.Type, in.Name, index, len(els))
	}
	return els[index-1].IDs, nil
}

// sharedFlag is embedded in every object type, where it implements share
// and isShared, and is an envelope's flag for its maps. Envelopes of
// concurrent statements share objects and stored envelopes, hence atomic.
type sharedFlag struct{ on atomic.Bool }

func (f *sharedFlag) share() {
	if !f.on.Load() {
		f.on.Store(true)
	}
}

func (f *sharedFlag) isShared() bool { return f.on.Load() }

// writeQuoted appends strconv.Quote(s) — what %q prints — to b. Previews,
// titles and snippets rarely hold anything Quote would escape, so the run
// of printable characters other than `"` and `\` is copied as is and only
// what follows it, if anything, goes through strconv.
func writeQuoted(b *strings.Builder, s string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if c < ' ' || c > '~' || c == '"' || c == '\\' {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if size == 1 || !strconv.IsPrint(r) { // invalid UTF-8, or escaped as \u
			break
		}
		i += size
	}
	b.WriteByte('"')
	b.WriteString(s[:i])
	if i == len(s) {
		b.WriteByte('"')
		return
	}
	b.WriteString(strconv.Quote(s[i:])[1:])
}
