package textmining

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"strings"
)

// Vector is a sparse term-frequency (or TF-IDF-weighted) vector. The zero
// value is not usable; create vectors with NewVector or VectorOf.
type Vector map[string]float64

// NewVector returns an empty vector.
func NewVector() Vector { return make(Vector) }

// VectorOf builds a raw term-frequency vector from text using the Terms
// pipeline.
func VectorOf(text string) Vector {
	v := NewVector()
	for _, t := range Terms(text) {
		v[t]++
	}
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return Vector{}
	}
	return maps.Clone(v)
}

// Add accumulates u into v (v += u).
func (v Vector) Add(u Vector) {
	for k, w := range u {
		v[k] += w
	}
}

// SortedTerms returns v's terms in ascending order, the order that makes
// an encoded vector a function of its contents.
func (v Vector) SortedTerms() []string {
	out := make([]string, 0, len(v))
	for t := range v {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, w := range v {
		s += w * w
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of v and u.
func (v Vector) Dot(u Vector) float64 {
	// Iterate the smaller map.
	if len(u) < len(v) {
		v, u = u, v
	}
	var s float64
	for k, w := range v {
		if uw, ok := u[k]; ok {
			s += w * uw
		}
	}
	return s
}

// Cosine returns the cosine similarity of v and u in [0, 1] for
// non-negative vectors; two empty vectors have similarity 0.
func Cosine(v, u Vector) float64 {
	nv, nu := v.Norm(), u.Norm()
	if nv == 0 || nu == 0 {
		return 0
	}
	return v.Dot(u) / (nv * nu)
}

// TopTerms returns the k highest-weighted terms in v, heaviest first, with
// ties broken alphabetically for determinism.
func (v Vector) TopTerms(k int) []string {
	all := v.ranked()
	k = min(k, len(all))
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].t
	}
	return out
}

// Prune keeps only the k heaviest terms of v (TopTerms' choice), dropping
// the tail in place. Summary objects carry pruned centroids so that
// cluster merge decisions can be made at query time without the raw
// annotations.
func (v Vector) Prune(k int) {
	if len(v) <= k {
		return
	}
	for _, e := range v.ranked()[k:] {
		delete(v, e.t)
	}
}

// termWeight is one entry of a ranked vector.
type termWeight struct {
	t string
	w float64
}

// ranked returns v's entries heaviest first, ties in term order.
func (v Vector) ranked() []termWeight {
	all := make([]termWeight, 0, len(v))
	for t, w := range v {
		all = append(all, termWeight{t, w})
	}
	slices.SortFunc(all, func(a, b termWeight) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		return cmp.Compare(a.t, b.t)
	})
	return all
}

// String renders the vector's top terms for debugging, e.g.
// "{feed:2 lake:1}".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range v.TopTerms(8) {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t)
	}
	b.WriteByte('}')
	return b.String()
}
