package textmining

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"insightnotes/internal/codec"
)

// trainBirdClassifier builds the demo paper's four-class ornithological
// classifier (Behavior/Disease/Anatomy/Other) on a small labeled corpus.
func trainBirdClassifier(t *testing.T) *NaiveBayes {
	t.Helper()
	nb, err := NewNaiveBayes([]string{"Behavior", "Disease", "Anatomy", "Other"})
	if err != nil {
		t.Fatal(err)
	}
	corpus := []struct{ text, label string }{
		{"found eating stonewort near the shore", "Behavior"},
		{"observed feeding at dawn in flocks", "Behavior"},
		{"aggressive display toward intruders", "Behavior"},
		{"migrates south in October every year", "Behavior"},
		{"signs of avian influenza infection", "Disease"},
		{"lesions on the beak suggest avian pox virus", "Disease"},
		{"parasite load high, visible mites", "Disease"},
		{"bird appears sick, lethargic and infected", "Disease"},
		{"wingspan measured at 1.8 meters", "Anatomy"},
		{"large body with long neck and orange bill", "Anatomy"},
		{"plumage is white with black wing tips", "Anatomy"},
		{"weight around 3 kilograms, short tail", "Anatomy"},
		{"photo attached from the trail camera", "Other"},
		{"duplicate of an earlier record", "Other"},
		{"see the linked wikipedia article", "Other"},
		{"data entered by volunteer team", "Other"},
	}
	for _, c := range corpus {
		if err := nb.Learn(c.text, c.label); err != nil {
			t.Fatal(err)
		}
	}
	return nb
}

func TestNewNaiveBayesValidation(t *testing.T) {
	if _, err := NewNaiveBayes([]string{"only"}); err == nil {
		t.Error("single label accepted")
	}
	if _, err := NewNaiveBayes([]string{"a", "a"}); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func TestClassifyBirdAnnotations(t *testing.T) {
	nb := trainBirdClassifier(t)
	if !nb.Trained() {
		t.Fatal("Trained() = false after full training")
	}
	cases := map[string]string{
		"observed eating stonewort and grasses":         "Behavior",
		"this bird looks infected with avian influenza": "Disease",
		"the wingspan seems very large, maybe 2 meters": "Anatomy",
		"volunteer attached a wikipedia article":        "Other",
	}
	for text, want := range cases {
		got, idx := nb.Classify(text)
		if got != want {
			t.Errorf("Classify(%q) = %q (idx %d), want %q", text, got, idx, want)
		}
		if nb.LabelIndex(got) != idx {
			t.Errorf("index mismatch for %q: %d vs %d", got, idx, nb.LabelIndex(got))
		}
	}
}

func TestClassifyEmptyTextUsesPrior(t *testing.T) {
	nb, _ := NewNaiveBayes([]string{"big", "small"})
	for i := 0; i < 5; i++ {
		nb.Learn("huge giant enormous", "big")
	}
	nb.Learn("tiny", "small")
	label, _ := nb.Classify("")
	if label != "big" {
		t.Errorf("empty text classified %q, want prior-dominant %q", label, "big")
	}
}

func TestLearnUnknownLabel(t *testing.T) {
	nb, _ := NewNaiveBayes([]string{"a", "b"})
	if err := nb.Learn("text", "c"); err == nil {
		t.Error("Learn with unknown label succeeded")
	}
	if nb.Trained() {
		t.Error("Trained() = true with no documents")
	}
}

func TestLogPosteriorsShape(t *testing.T) {
	nb := trainBirdClassifier(t)
	scores := nb.LogPosteriors("feeding on stonewort")
	if len(scores) != 4 {
		t.Fatalf("len = %d", len(scores))
	}
	bi := nb.LabelIndex("Behavior")
	for i, s := range scores {
		if i != bi && s >= scores[bi] {
			t.Errorf("label %d score %g >= Behavior %g", i, s, scores[bi])
		}
	}
}

// roundTrip encodes nb and decodes the bytes.
func roundTrip(t *testing.T, nb *NaiveBayes) *NaiveBayes {
	t.Helper()
	w := codec.NewWriter(nil)
	nb.Encode(w)
	r := codec.NewReader(w.Bytes())
	back := DecodeNaiveBayes(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return back
}

// A decoded model is the encoded one, the sums Encode leaves out
// included, and classifies alike; equal models encode to equal bytes.
func TestNaiveBayesSerializationRoundTrip(t *testing.T) {
	nb := trainBirdClassifier(t)
	back := roundTrip(t, nb)
	if !reflect.DeepEqual(back, nb) {
		t.Fatalf("round trip changed the model:\n got  %+v\n want %+v", back, nb)
	}
	for _, text := range []string{
		"eating stonewort", "avian influenza", "wingspan large", "wikipedia article",
	} {
		l1, _ := nb.Classify(text)
		l2, _ := back.Classify(text)
		if l1 != l2 {
			t.Errorf("Classify(%q) diverged after round trip: %q vs %q", text, l1, l2)
		}
	}
	w1, w2 := codec.NewWriter(nil), codec.NewWriter(nil)
	nb.Encode(w1)
	back.Encode(w2)
	if string(w1.Bytes()) != string(w2.Bytes()) {
		t.Error("a decoded model encodes to other bytes")
	}
}

func TestUnmarshalCorruptModel(t *testing.T) {
	model := func(write func(w *codec.Writer)) []byte {
		w := codec.NewWriter(nil)
		write(w)
		return w.Bytes()
	}
	labels := func(w *codec.Writer, ls ...string) {
		w.Uvarint(uint64(len(ls)))
		for _, l := range ls {
			w.Str(l)
		}
	}
	for name, bad := range map[string][]byte{
		"one label":      model(func(w *codec.Writer) { labels(w, "a") }),
		"repeated label": model(func(w *codec.Writer) { labels(w, "a", "a") }),
		"truncated":      model(func(w *codec.Writer) { labels(w, "a", "b"); w.Float64(1) }),
		"negative count": model(func(w *codec.Writer) {
			labels(w, "a", "b")
			w.Float64(-1)
			w.Uvarint(0)
			w.Float64(0)
			w.Uvarint(0)
		}),
		"infinite term count": model(func(w *codec.Writer) {
			labels(w, "a", "b")
			w.Float64(1)
			w.Uvarint(1)
			w.Str("swan")
			w.Float64(math.Inf(1))
			w.Float64(0)
			w.Uvarint(0)
		}),
		"terms out of order": model(func(w *codec.Writer) {
			labels(w, "a", "b")
			w.Float64(2)
			w.Uvarint(2)
			w.Str("swan")
			w.Float64(1)
			w.Str("goose")
			w.Float64(1)
			w.Float64(0)
			w.Uvarint(0)
		}),
		"not a model": []byte("not a model"),
	} {
		r := codec.NewReader(bad)
		if nb := DecodeNaiveBayes(r); r.Done() == nil || nb != nil {
			t.Errorf("%s: corrupt model accepted", name)
		}
	}
}

func TestIncrementalLearningShiftsDecision(t *testing.T) {
	nb, _ := NewNaiveBayes([]string{"refute", "approve"})
	nb.Learn("value is wrong incorrect error", "refute")
	nb.Learn("confirmed verified correct", "approve")
	text := "the measurement was checked against the logbook"
	// Teach the model that "logbook checks" indicate approval.
	for i := 0; i < 5; i++ {
		nb.Learn("checked against logbook and confirmed", "approve")
	}
	if got, _ := nb.Classify(text); got != "approve" {
		t.Errorf("after incremental training Classify = %q, want approve", got)
	}
}

// directLogPosteriors is the textbook formula, one math.Log per term and
// label, that the cached table must reproduce bit for bit.
func directLogPosteriors(nb *NaiveBayes, text string) []float64 {
	terms := Terms(text)
	v := float64(len(nb.vocab)) + 1
	scores := make([]float64, len(nb.labels))
	for i := range nb.labels {
		s := math.Log((nb.docCount[i] + 1) / (nb.totalDocs + float64(len(nb.labels))))
		denom := nb.termCount[i] + v
		for _, t := range terms {
			s += math.Log((nb.termPerWord[i][t] + 1) / denom)
		}
		scores[i] = s
	}
	return scores
}

func TestLogPosteriorsTableMatchesDirect(t *testing.T) {
	nb := trainBirdClassifier(t)
	texts := []string{
		"", "observed eating stonewort and grasses", "lesions lesions lesions on the beak",
		"completely unseen vocabulary xylophone", "the wingspan seems very large, maybe 2 meters",
		"Énorme cygne observé près du lac",
	}
	check := func(stage string) {
		t.Helper()
		for _, text := range texts {
			got, want := nb.LogPosteriors(text), directLogPosteriors(nb, text)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: LogPosteriors(%q)[%d] = %v, direct %v", stage, text, i, got[i], want[i])
				}
			}
		}
	}
	check("trained")
	// Learn drops the table: new vocabulary and counts show up at once.
	nb.Learn("xylophone recital near the shore", "Other")
	nb.Learn("lesions and mites", "Disease")
	check("after Learn")
	nb = roundTrip(t, nb)
	check("after decoding")
}

// Classify from many goroutines while the first table is being built: the
// race detector must stay quiet and every answer must match a sequential
// run.
func TestConcurrentClassifyBuildsTable(t *testing.T) {
	nb := trainBirdClassifier(t)
	texts := []string{
		"observed eating stonewort and grasses", "this bird looks infected with avian influenza",
		"the wingspan seems very large, maybe 2 meters", "volunteer attached a wikipedia article",
	}
	want := make([]int, len(texts))
	for i, text := range texts {
		_, want[i] = trainBirdClassifier(t).Classify(text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(texts)
				if _, got := nb.Classify(texts[i]); got != want[i] {
					t.Errorf("Classify(%q) = %d, want %d", texts[i], got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
