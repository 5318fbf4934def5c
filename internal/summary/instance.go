package summary

import (
	"fmt"
	"sync/atomic"

	"insightnotes/internal/annotation"
	"insightnotes/internal/textmining"
)

// Instance is a configured summary instance (level 2 of the hierarchy): a
// summary type plus the domain expert's configuration — mirroring the
// paper's example instance record
//
//	{ InstanceID: "ClassBird1", TypeName: "Classifier",
//	  FunctionID: NaiveBayesFunc(), Properties: [...],
//	  ClassLabels: [...], TrainingModel: ... }
//
// Instances are linked to relations by the catalog; an instance linked to
// relation R produces one Object per tuple of R.
type Instance struct {
	Name  string
	Type  TypeName
	Props Properties

	// Classifier configuration.
	Classifier *textmining.NaiveBayes

	// Cluster configuration.
	SimThreshold  float64 // cosine threshold for joining a group
	CentroidTerms int     // terms kept per member vector / centroid
	PreviewLen    int     // representative preview length (bytes)
	// MergeBySimilarity additionally combines non-member-overlapping
	// groups by centroid similarity at merge time (the Figure 2 A1+B5
	// behaviour). Member-overlap combination always applies and is
	// plan-order-canonical; similarity combination is best-effort under
	// plan reordering (see DESIGN.md E3 note).
	MergeBySimilarity bool

	// Snippet configuration.
	SnippetSentences int

	// summarizeCalls counts Summarize invocations — the measurement behind
	// the summarize-once experiment (E5).
	summarizeCalls atomic.Int64
}

// Default configuration values.
const (
	DefaultSimThreshold     = 0.30
	DefaultCentroidTerms    = 8
	DefaultPreviewLen       = 60
	DefaultSnippetSentences = 2
)

// NewClassifierInstance creates a Classifier instance around a trained (or
// trainable) Naive Bayes model. Classifier summarization depends only on
// the annotation text, so both invariant properties hold.
func NewClassifierInstance(name string, model *textmining.NaiveBayes) (*Instance, error) {
	if name == "" {
		return nil, fmt.Errorf("summary: instance name required")
	}
	if model == nil {
		return nil, fmt.Errorf("summary: classifier instance %q needs a model", name)
	}
	return &Instance{
		Name:       name,
		Type:       TypeClassifier,
		Props:      Properties{AnnotationInvariant: true, DataInvariant: true},
		Classifier: model,
	}, nil
}

// NewClusterInstance creates a Cluster instance. The expensive digest
// (vectorization) is annotation- and data-invariant; group assignment is
// object-local and happens at Add time.
func NewClusterInstance(name string, simThreshold float64) (*Instance, error) {
	if name == "" {
		return nil, fmt.Errorf("summary: instance name required")
	}
	if simThreshold <= 0 || simThreshold >= 1 {
		return nil, fmt.Errorf("summary: similarity threshold %g outside (0,1)", simThreshold)
	}
	return &Instance{
		Name:          name,
		Type:          TypeCluster,
		Props:         Properties{AnnotationInvariant: true, DataInvariant: true},
		SimThreshold:  simThreshold,
		CentroidTerms: DefaultCentroidTerms,
		PreviewLen:    DefaultPreviewLen,
	}, nil
}

// NewSnippetInstance creates a Snippet instance that condenses attached
// documents to the given number of extracted sentences.
func NewSnippetInstance(name string, sentences int) (*Instance, error) {
	if name == "" {
		return nil, fmt.Errorf("summary: instance name required")
	}
	if sentences < 1 {
		return nil, fmt.Errorf("summary: snippet sentence count %d < 1", sentences)
	}
	return &Instance{
		Name:             name,
		Type:             TypeSnippet,
		Props:            Properties{AnnotationInvariant: true, DataInvariant: true},
		SnippetSentences: sentences,
	}, nil
}

// Summarize computes the digest of one raw annotation under this instance.
// This is the (potentially expensive) mining step; the engine caches its
// result per annotation when Props.SummarizeOnce() holds.
func (in *Instance) Summarize(a annotation.Annotation) Digest {
	in.summarizeCalls.Add(1)
	d := Digest{Ann: a.ID}
	switch in.Type {
	case TypeClassifier:
		_, d.LabelIndex = in.Classifier.Classify(a.Text)
	case TypeCluster:
		v := textmining.VectorOf(a.Text)
		v.Prune(in.CentroidTerms)
		d.Vector = v
		d.Preview = a.Preview(in.PreviewLen)
	case TypeSnippet:
		if a.HasDocument() {
			d.HasDoc = true
			d.Title = a.Title
			d.Snippet = textmining.ExtractSnippet(a.Document, in.SnippetSentences)
		}
	}
	return d
}

// SummarizeCalls returns the number of Summarize invocations so far.
func (in *Instance) SummarizeCalls() int64 { return in.summarizeCalls.Load() }

// ResetStats zeroes the instrumentation counters (between benchmark runs).
func (in *Instance) ResetStats() { in.summarizeCalls.Store(0) }

// NewObject creates an empty summary object of this instance's type.
func (in *Instance) NewObject() Object {
	switch in.Type {
	case TypeClassifier:
		return newClassifierObject(in)
	case TypeCluster:
		return newClusterObject(in)
	case TypeSnippet:
		return newSnippetObject(in)
	}
	panic(fmt.Sprintf("summary: instance %q has invalid type %q", in.Name, in.Type))
}
