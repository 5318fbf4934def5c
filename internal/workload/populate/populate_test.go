package populate

import (
	"context"
	"testing"

	"insightnotes/internal/engine"
	"insightnotes/internal/types"
	"insightnotes/internal/workload"
)

func TestPopulateBirdsEndToEnd(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(11)
	spec := BirdCorpusSpec{Tuples: 4, AnnotationsPerTuple: 8, DocumentFraction: 0.3, TrainPerClass: 5}
	n, err := Birds(db, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 32 {
		t.Fatalf("annotations = %d", n)
	}
	if db.Annotations().Count() != 32 {
		t.Errorf("store count = %d", db.Annotations().Count())
	}
	// Every tuple has a maintained envelope with the classifier object.
	res, err := db.Query(context.Background(), "SELECT id, name FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Env == nil || row.Env.Object("ClassBird1") == nil {
			t.Fatalf("row %v missing summaries", row.Tuple)
		}
		if row.Env.Object("ClassBird1").Len() != 8 {
			t.Errorf("row %v classifier members = %d", row.Tuple, row.Env.Object("ClassBird1").Len())
		}
	}
	// With DocumentFraction 0.3 some snippet objects must exist.
	foundSnippet := false
	for _, row := range res.Rows {
		if row.Env.Object("TextSummary1") != nil {
			foundSnippet = true
		}
	}
	if !foundSnippet {
		t.Error("no snippet objects despite document fraction")
	}
}

func TestPopulateGenes(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(5)
	n, err := Genes(db, g, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("annotations = %d", n)
	}
	env := db.EnvelopeFor("genes", 1)
	if env == nil || env.Object("GeneClass") == nil {
		t.Fatal("gene envelopes missing")
	}
}

func TestPopulateValidation(t *testing.T) {
	db, _ := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if _, err := Birds(db, workload.New(1), BirdCorpusSpec{Tuples: 0}); err == nil {
		t.Error("zero tuples accepted")
	}
}

func TestPopulateBirdsZipfSkew(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(23)
	spec := BirdCorpusSpec{Tuples: 8, AnnotationsPerTuple: 16, ZipfSkew: 1.5, TrainPerClass: 5}
	n, err := Birds(db, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8*16 {
		t.Fatalf("annotations = %d", n)
	}
	// The distribution over tuples is skewed: some tuple carries more than
	// the uniform share, some carries less.
	max, min := 0, 1<<30
	for row := 1; row <= 8; row++ {
		c := len(db.Annotations().ForTuple("birds", annRowID(row)))
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max <= 16 || min >= 16 {
		t.Errorf("no skew: max %d, min %d", max, min)
	}
}

func annRowID(n int) types.RowID { return types.RowID(n) }
