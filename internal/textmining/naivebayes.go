package textmining

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
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
	// table caches the log terms LogPosteriors adds up; Learn and
	// UnmarshalJSON drop it, the next LogPosteriors rebuilds it.
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

// nbModel is the serialization shape of a trained model.
type nbModel struct {
	Labels    []string             `json:"labels"`
	DocCount  []float64            `json:"doc_count"`
	TermCount []float64            `json:"term_count"`
	Terms     []map[string]float64 `json:"terms"`
}

// MarshalJSON serializes the trained model so summary instances can persist
// their TrainingModel field (Figure 4 of the paper).
func (nb *NaiveBayes) MarshalJSON() ([]byte, error) {
	return json.Marshal(nbModel{
		Labels:    nb.labels,
		DocCount:  nb.docCount,
		TermCount: nb.termCount,
		Terms:     nb.termPerWord,
	})
}

// UnmarshalJSON restores a model serialized by MarshalJSON.
func (nb *NaiveBayes) UnmarshalJSON(data []byte) error {
	var m nbModel
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if len(m.Labels) < 2 || len(m.DocCount) != len(m.Labels) ||
		len(m.TermCount) != len(m.Labels) || len(m.Terms) != len(m.Labels) {
		return fmt.Errorf("textmining: corrupt classifier model")
	}
	fresh, err := NewNaiveBayes(m.Labels)
	if err != nil {
		return err
	}
	nb.table.Store(nil)
	nb.labels, nb.labelIndex = fresh.labels, fresh.labelIndex
	nb.docCount, nb.termCount = fresh.docCount, fresh.termCount
	nb.termPerWord, nb.vocab, nb.totalDocs = fresh.termPerWord, fresh.vocab, 0
	copy(nb.docCount, m.DocCount)
	copy(nb.termCount, m.TermCount)
	for i, tm := range m.Terms {
		for t, c := range tm {
			nb.termPerWord[i][t] = c
			nb.vocab[t] = struct{}{}
		}
		nb.totalDocs += 0 // doc totals derived below
	}
	for _, c := range m.DocCount {
		nb.totalDocs += c
	}
	return nil
}

// TopTermsForLabel returns the k most indicative terms of a label by
// per-label frequency — useful for explaining classifier summaries in the
// front end.
func (nb *NaiveBayes) TopTermsForLabel(label string, k int) []string {
	li, ok := nb.labelIndex[label]
	if !ok {
		return nil
	}
	type tw struct {
		t string
		w float64
	}
	all := make([]tw, 0, len(nb.termPerWord[li]))
	for t, w := range nb.termPerWord[li] {
		all = append(all, tw{t, w})
	}
	slices.SortFunc(all, func(a, b tw) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		return cmp.Compare(a.t, b.t)
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = all[i].t
	}
	return out
}
