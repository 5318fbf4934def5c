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
// Their per-annotation state is kept in lists sorted by annotation id
// (sorted.go), so removal and merge are linear walks.
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
	AnnotationInvariant bool
	DataInvariant       bool
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
	// Remove retracts the member annotations among ids (sorted ascending),
	// updating counts, centroids, and elected representatives, and returns
	// the result: the receiver, changed in place, unless it is shared and
	// holds one of ids — then a changed copy, the receiver left as it was.
	Remove(ids []annotation.ID) Object
	// MergeFrom combines others (objects of the same instance, only read)
	// with the receiver in one pass and returns the result: the receiver,
	// changed in place, unless it is shared — then a new object. A member
	// present on more than one side is counted once.
	MergeFrom(others ...Object) Object
	// Clone returns a copy that shares nothing either side can change in
	// place: the instance, and a cluster object's groups, which both
	// copies then hold shared and copy on write.
	Clone() Object
	// Members returns the contributing annotation ids, sorted ascending.
	Members() []annotation.ID
	// Len returns the number of contributing annotations.
	Len() int
	// Elements lists the zoomable elements — class labels, cluster groups,
	// or snippet positions — in the 1-based index order ZoomIn commands
	// use, each with its display label and its sorted annotation ids. A
	// shared object computes them once and every later call returns the
	// same slice (see presentation), so the slice and every Element.IDs in
	// it are read-only.
	Elements() []Element
	// Zoom resolves one 1-based element index to the raw annotation ids
	// behind it: Elements()[index-1].IDs, or an error when out of range.
	// The ids are read-only.
	Zoom(index int) ([]annotation.ID, error)
	// Render formats the object in the paper's display style; a shared
	// object formats itself once.
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
	// appendRender appends the Render text to dst, computing it afresh:
	// the one place each object type formats itself.
	appendRender(dst []byte) []byte
}

// AppendRender appends o's Render text to dst. A shared object's is its
// memo (see RendersOnce); any other object formats itself into dst, with
// no intermediate string.
func AppendRender(dst []byte, o Object) []byte {
	if o.isShared() {
		return append(dst, o.Render()...)
	}
	return o.appendRender(dst)
}

// RendersOnce reports whether o is latched shared: immutable, so that
// Render formats it once and returns the same string to every later call.
func RendersOnce(o Object) bool { return o.isShared() }

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
// and isShared, and in cluster groups; it is also an envelope's flag for its
// coverage list and object list. Envelopes of concurrent statements share
// objects, groups and stored envelopes, hence atomic.
type sharedFlag struct{ on atomic.Bool }

func (f *sharedFlag) share() {
	if !f.on.Load() {
		f.on.Store(true)
	}
}

func (f *sharedFlag) isShared() bool { return f.on.Load() }

// presentation memoises an object's display form, its Render text and its
// Elements; every object type embeds one. A memo is stored only while the
// object is latched shared. A shared object is immutable, so the memo is
// never invalidated, and every reader of a stored object after the first
// reuses it. Clone and NewObject build fresh structs, which carry no memo.
// An unshared object (a GROUP BY accumulator, a join's merged object)
// computes its presentation on every call.
type presentation struct {
	text  atomic.Pointer[string]
	elems atomic.Pointer[[]Element]
}

// rendered is the Render body of every object type: o's text, memoised in
// p while o is shared.
func rendered(p *presentation, o Object) string {
	return memoised(&p.text, o.isShared(), func() string { return string(o.appendRender(nil)) })
}

// memoised returns the value p holds, else compute's result, which it
// stores in p when keep is set. Callers pass keep = isShared(), read before
// computing: what an unshared object shows may be stale by the time it is
// latched. Concurrent first calls may each compute; they store equal values.
func memoised[T any](p *atomic.Pointer[T], keep bool, compute func() T) T {
	if v := p.Load(); v != nil {
		return *v
	}
	if !keep {
		return compute()
	}
	v := compute()
	p.Store(&v)
	return v
}

// appendQuoted appends strconv.Quote(s) — what %q prints — to dst. Callers
// that know s is plain (see isPlain) append it between two quotes instead.
// Otherwise the run of s that plainPrefix measures is copied as is and only
// what follows it goes through strconv.
func appendQuoted(dst []byte, s string) []byte {
	i := plainPrefix(s)
	dst = append(dst, '"')
	dst = append(dst, s[:i]...)
	if i == len(s) {
		return append(dst, '"')
	}
	mark := len(dst)
	dst = strconv.AppendQuote(dst, s[i:])
	return append(dst[:mark], dst[mark+1:]...) // drop AppendQuote's opening quote
}

// isPlain reports whether strconv.Quote(s) is s between two quotes. An
// object decides it once, where a title, snippet or preview enters it, so
// that rendering copies a plain string and scans it no more.
func isPlain(s string) bool { return plainPrefix(s) == len(s) }

// plainPrefix returns the length of the longest prefix of s that Quote
// copies as is: printable runes other than `"` and `\`. Previews, titles
// and snippets rarely hold anything else. The run is checked eight bytes at
// a time while they are plain ASCII.
func plainPrefix(s string) int {
	i := 0
	for i < len(s) {
		if i+8 <= len(s) && plainASCII(s[i:i+8]) {
			i += 8
			continue
		}
		if c := s[i]; c < utf8.RuneSelf {
			if c < ' ' || c > '~' || c == '"' || c == '\\' {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if size == 1 || !strconv.IsPrint(r) { // invalid UTF-8, or escaped as \u
			return i
		}
		i += size
	}
	return i
}

// appendPlainOrQuoted appends s quoted, copying it between two quotes when
// plain says Quote would.
func appendPlainOrQuoted(dst []byte, s string, plain bool) []byte {
	if !plain {
		return appendQuoted(dst, s)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Masks for the byte-parallel tests on a 64-bit word: ones has 1 in every
// byte, high the top bit of every byte.
const (
	ones = 0x0101010101010101
	high = 0x8080808080808080
)

// plainASCII reports whether the eight bytes of w are all printable ASCII
// (' ' to '~') other than `"` and `\`, the bytes Quote copies as is.
func plainASCII(w string) bool {
	x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
		uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
	// Once no top bit is set, x-' '*ones&^x sets a byte's top bit if and
	// only if a byte is below ' ', and zero(x^c*ones) if a byte is c.
	return x&high|(x-' '*ones)&^x&high|zero(x^'"'*ones)|zero(x^'\\'*ones)|zero(x^0x7f*ones) == 0
}

// zero returns a non-zero word if and only if a byte of x is zero.
func zero(x uint64) uint64 { return (x - ones) &^ x & high }
