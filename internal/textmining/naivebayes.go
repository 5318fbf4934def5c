package textmining

import (
	"fmt"
	"math"
	"sync/atomic"

	"insightnotes/internal/codec"
)

// NaiveBayes is a multinomial Naive Bayes text classifier with Laplace
// smoothing, following the formulation in Manning, Raghavan & Schütze
// (ref [12] in the paper). It classifies annotation texts into the class
// labels configured on a Classifier summary instance.
//
// The model supports incremental training (Learn may be called at any
// time), which the engine uses to let domain experts refine classifiers
// after deployment.
type NaiveBayes struct {
	labels      []string
	labelIndex  map[string]int
	docCount    []float64            // documents per label
	termCount   []float64            // total term occurrences per label
	termPerWord []map[string]float64 // per-label term frequencies
	vocab       map[string]struct{}
	totalDocs   float64
	// table caches the log terms LogPosteriors adds up; Learn drops it,
	// the next LogPosteriors rebuilds it.
	table atomic.Pointer[nbTable]
}

// nbTable holds, per label i, the model's log prior and each vocabulary
// term's log likelihood math.Log((count+1)/denom_i) — the exact values
// LogPosteriors would compute, so scores are bit-identical with or without
// it. unseen is the row of a term outside the vocabulary (count 0).
type nbTable struct {
	prior  []float64
	terms  map[string][]float64
	unseen []float64
}

// NewNaiveBayes creates an untrained classifier over the given class
// labels. The label order is significant: ZoomIn commands address class
// labels by 1-based index in this order (see Figure 3 of the paper).
func NewNaiveBayes(labels []string) (*NaiveBayes, error) {
	if len(labels) < 2 {
		return nil, fmt.Errorf("textmining: classifier needs at least 2 labels, got %d", len(labels))
	}
	nb := &NaiveBayes{
		labels:      append([]string(nil), labels...),
		labelIndex:  make(map[string]int, len(labels)),
		docCount:    make([]float64, len(labels)),
		termCount:   make([]float64, len(labels)),
		termPerWord: make([]map[string]float64, len(labels)),
		vocab:       make(map[string]struct{}),
	}
	for i, l := range labels {
		if _, dup := nb.labelIndex[l]; dup {
			return nil, fmt.Errorf("textmining: duplicate label %q", l)
		}
		nb.labelIndex[l] = i
		nb.termPerWord[i] = make(map[string]float64)
	}
	return nb, nil
}

// Labels returns the class labels in index order.
func (nb *NaiveBayes) Labels() []string { return append([]string(nil), nb.labels...) }

// LabelIndex returns the index of label, or -1.
func (nb *NaiveBayes) LabelIndex(label string) int {
	if i, ok := nb.labelIndex[label]; ok {
		return i
	}
	return -1
}

// Learn adds one labeled training document.
func (nb *NaiveBayes) Learn(text, label string) error {
	li, ok := nb.labelIndex[label]
	if !ok {
		return fmt.Errorf("textmining: unknown label %q", label)
	}
	nb.table.Store(nil)
	nb.docCount[li]++
	nb.totalDocs++
	for _, t := range Terms(text) {
		nb.termPerWord[li][t]++
		nb.termCount[li]++
		nb.vocab[t] = struct{}{}
	}
	return nil
}

// Trained reports whether every label has seen at least one training
// document.
func (nb *NaiveBayes) Trained() bool {
	for _, c := range nb.docCount {
		if c == 0 {
			return false
		}
	}
	return nb.totalDocs > 0
}

// Classify returns the most probable label for text and its index. An
// untrained label acts as if it had a single empty document (the Laplace
// prior keeps probabilities defined). Classification of an empty or
// all-stop-word text falls back to the label with the highest prior.
func (nb *NaiveBayes) Classify(text string) (label string, index int) {
	scores := nb.LogPosteriors(text)
	best := 0
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[best] {
			best = i
		}
	}
	return nb.labels[best], best
}

// LogPosteriors returns the (unnormalized) log posterior of each label for
// text, in label-index order: the Laplace-smoothed log prior plus, term by
// term, the log likelihood of the term under the label.
func (nb *NaiveBayes) LogPosteriors(text string) []float64 {
	tab := nb.table.Load()
	if tab == nil {
		tab = nb.buildTable()
		nb.table.Store(tab)
	}
	scores := append([]float64(nil), tab.prior...)
	for _, t := range Terms(text) {
		row, ok := tab.terms[t]
		if !ok {
			row = tab.unseen
		}
		for i, l := range row {
			scores[i] += l
		}
	}
	return scores
}

// buildTable computes the log terms of the current model. Concurrent
// callers may each build one; the tables are equal.
func (nb *NaiveBayes) buildTable() *nbTable {
	n := len(nb.labels)
	v := float64(len(nb.vocab)) + 1 // +1 for the unseen-term pseudo-slot
	tab := &nbTable{
		prior:  make([]float64, n),
		terms:  make(map[string][]float64, len(nb.vocab)),
		unseen: make([]float64, n),
	}
	rows := make([]float64, n*len(nb.vocab))
	for t := range nb.vocab {
		tab.terms[t], rows = rows[:n:n], rows[n:]
	}
	for i := range nb.labels {
		// Laplace-smoothed prior over documents.
		prior := (nb.docCount[i] + 1) / (nb.totalDocs + float64(n))
		tab.prior[i] = math.Log(prior)
		denom := nb.termCount[i] + v
		tab.unseen[i] = math.Log(1 / denom)
		for t, row := range tab.terms {
			row[i] = math.Log((nb.termPerWord[i][t] + 1) / denom)
		}
	}
	return tab
}

// Encode appends the trained model to w: the labels, then per label its
// document count and its term counts in term order, so that equal models
// encode to equal bytes. The per-label term totals, the vocabulary and the
// document total are sums of these and are not written.
func (nb *NaiveBayes) Encode(w *codec.Writer) {
	w.Uvarint(uint64(len(nb.labels)))
	for _, l := range nb.labels {
		w.Str(l)
	}
	for i, terms := range nb.termPerWord {
		w.Float64(nb.docCount[i])
		w.Uvarint(uint64(len(terms)))
		for _, t := range Vector(terms).SortedTerms() {
			w.Str(t)
			w.Float64(terms[t])
		}
	}
}

// DecodeNaiveBayes reads a model written by Encode, recording a failure
// on r and returning nil for a corrupt one: fewer than two labels, a
// repeated label, terms out of order or repeated, or a count that is
// negative or not finite.
func DecodeNaiveBayes(r *codec.Reader) *NaiveBayes {
	labels := make([]string, r.Count(1))
	for i := range labels {
		labels[i] = r.Str()
	}
	if r.Err() != nil {
		return nil
	}
	nb, err := NewNaiveBayes(labels)
	if err != nil {
		r.Fail(err)
		return nil
	}
	count := func() float64 {
		c := r.Float64()
		if !(c >= 0 && c <= math.MaxFloat64) {
			r.Fail(fmt.Errorf("textmining: corrupt classifier model: count %v", c))
		}
		return c
	}
	for i, terms := range nb.termPerWord {
		nb.docCount[i] = count()
		nb.totalDocs += nb.docCount[i]
		prev := ""
		for k, n := 0, r.Count(2); k < n && r.Err() == nil; k++ {
			t := r.Str()
			if k > 0 && t <= prev {
				r.Fail(fmt.Errorf("textmining: corrupt classifier model: term %q after %q", t, prev))
			}
			terms[t] = count()
			nb.termCount[i] += terms[t]
			nb.vocab[t] = struct{}{}
			prev = t
		}
	}
	if r.Err() != nil {
		return nil
	}
	return nb
}
