package summary

import (
	"reflect"
	"testing"

	"insightnotes/internal/codec"
)

func TestParseTypeName(t *testing.T) {
	for _, good := range []string{"Classifier", "Cluster", "Snippet"} {
		if _, err := ParseTypeName(good); err != nil {
			t.Errorf("ParseTypeName(%q) = %v", good, err)
		}
	}
	if _, err := ParseTypeName("Histogram"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestInstanceConstructorsValidate(t *testing.T) {
	if _, err := NewClassifierInstance("", birdModel(t)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewClassifierInstance("c", nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewClusterInstance("c", 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewClusterInstance("c", 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := NewClusterInstance("", 0.5); err == nil {
		t.Error("empty cluster name accepted")
	}
	if _, err := NewSnippetInstance("s", 0); err == nil {
		t.Error("zero sentences accepted")
	}
	if _, err := NewSnippetInstance("", 2); err == nil {
		t.Error("empty snippet name accepted")
	}
}

func TestInstancePropertiesDefaults(t *testing.T) {
	cls := classifierInstance(t, "c")
	if !cls.Props.SummarizeOnce() {
		t.Error("classifier instance should be summarize-once by default")
	}
	p := Properties{AnnotationInvariant: true, DataInvariant: false}
	if p.SummarizeOnce() {
		t.Error("half-invariant properties reported summarize-once")
	}
}

func TestSummarizeDigests(t *testing.T) {
	cls := classifierInstance(t, "c")
	d := cls.Summarize(ann(1, "observed feeding on stonewort"))
	if d.Ann != 1 {
		t.Errorf("digest id = %d", d.Ann)
	}
	if got := cls.Classifier.Labels()[d.LabelIndex]; got != "Behavior" {
		t.Errorf("digest label = %q", got)
	}

	clu := clusterInstance(t, "s")
	d = clu.Summarize(ann(2, "observed feeding on stonewort near shore"))
	if len(d.Vector) == 0 || len(d.Vector) > clu.CentroidTerms {
		t.Errorf("cluster digest vector size = %d", len(d.Vector))
	}
	if d.Preview == "" {
		t.Error("cluster digest missing preview")
	}

	snp := snippetInstance(t, "t")
	d = snp.Summarize(docAnn(3, "Title", wikiDoc))
	if !d.HasDoc || d.Snippet == "" || d.Title != "Title" {
		t.Errorf("snippet digest = %+v", d)
	}
	d = snp.Summarize(ann(4, "no document"))
	if d.HasDoc {
		t.Error("plain annotation digest claims a document")
	}
}

func TestSummarizeCallCounter(t *testing.T) {
	cls := classifierInstance(t, "c")
	if cls.SummarizeCalls() != 0 {
		t.Fatal("fresh instance has nonzero calls")
	}
	for i := 0; i < 5; i++ {
		cls.Summarize(ann(1, "text"))
	}
	if cls.SummarizeCalls() != 5 {
		t.Errorf("SummarizeCalls = %d", cls.SummarizeCalls())
	}
	cls.ResetStats()
	if cls.SummarizeCalls() != 0 {
		t.Error("ResetStats did not zero the counter")
	}
}

// encodeInstance is in's create_instance body.
func encodeInstance(in *Instance) []byte {
	w := codec.NewWriter(nil)
	in.Encode(w)
	return w.Bytes()
}

func TestInstanceSerializationRoundTrip(t *testing.T) {
	clu := clusterInstance(t, "SimCluster")
	clu.MergeBySimilarity, clu.PreviewLen, clu.SimThreshold = true, 40, 0.45
	for _, in := range []*Instance{classifierInstance(t, "ClassBird1"), clu, snippetInstance(t, "TextSummary1")} {
		r := codec.NewReader(encodeInstance(in))
		back := DecodeInstance(r)
		if err := r.Done(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if !reflect.DeepEqual(back, in) {
			t.Errorf("%s: round trip changed the instance:\n got  %+v\n want %+v", in.Name, back, in)
		}
		// A restored instance must produce working objects.
		obj := back.NewObject()
		switch back.Type {
		case TypeClassifier:
			obj.Add(back.Summarize(ann(1, "observed feeding on stonewort")))
		case TypeCluster:
			obj.Add(back.Summarize(ann(1, behaviorText(1))))
		case TypeSnippet:
			obj.Add(back.Summarize(docAnn(1, "T", wikiDoc)))
		}
		if obj.Len() != 1 {
			t.Errorf("%s: restored instance object Len = %d", in.Name, obj.Len())
		}
	}
}

func TestInstanceUnmarshalRejectsBadConfigs(t *testing.T) {
	header := func(name, typ string) *codec.Writer {
		w := codec.NewWriter(nil)
		w.Str(name)
		w.Str(typ)
		w.Bool(true)
		w.Bool(true)
		return w
	}
	unnamed := header("", "Snippet")
	unnamed.Varint(2)
	threshold := header("x", "Cluster")
	threshold.Float64(1.5)
	threshold.Varint(8)
	threshold.Varint(60)
	threshold.Bool(false)
	for name, bad := range map[string][]byte{
		"unknown type":                header("x", "Histogram").Bytes(),
		"classifier without model":    header("x", "Classifier").Bytes(),
		"snippet without a name":      unnamed.Bytes(),
		"cluster threshold above one": threshold.Bytes(),
		"truncated":                   encodeInstance(clusterInstance(t, "c"))[:5],
		"not an instance":             []byte("not an instance"),
	} {
		r := codec.NewReader(bad)
		if in := DecodeInstance(r); r.Done() == nil || in != nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
}

func TestClusterDigestVectorPruned(t *testing.T) {
	clu := clusterInstance(t, "s")
	long := "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda " +
		"mu nu xi omicron pi rho sigma tau upsilon"
	d := clu.Summarize(ann(1, long))
	if len(d.Vector) > clu.CentroidTerms {
		t.Errorf("digest vector has %d terms, cap %d", len(d.Vector), clu.CentroidTerms)
	}
}
