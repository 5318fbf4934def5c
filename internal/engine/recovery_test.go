package engine

import (
	"testing"
)

// An annotation keeps the classifier label it was given at ingest: TRAIN
// refines only later summarization, and only RebuildSummaries refreshes
// existing summary objects. A checkpoint stores the classifier object, so
// recovery restores that label without classifying the annotation again.
func TestRecoveryKeepsPreTrainLabels(t *testing.T) {
	const text = "seen feeding near the lake"
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	for _, stmt := range []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"INSERT INTO birds VALUES (1, 'Swan Goose')",
		"CREATE SUMMARY INSTANCE Cls TYPE Classifier LABELS ('Behavior', 'Disease')",
		"TRAIN SUMMARY Cls ('feeding at dawn', 'Behavior'), ('lesions from avian pox', 'Disease')",
		"LINK SUMMARY Cls TO birds",
		"ADD ANNOTATION '" + text + "' ON birds WHERE id = 1",
		"TRAIN SUMMARY Cls ('seen near the lake', 'Disease'), ('seen near the lake', 'Disease'), ('near the lake', 'Disease')",
		"CHECKPOINT",
	} {
		mustExec(t, db, stmt)
	}
	const pre, post = "Cls [(Behavior, 1), (Disease, 0)]", "Cls [(Behavior, 0), (Disease, 1)]"
	if got := db.StoredEnvelope("birds", 1).Render(); got != pre {
		t.Fatalf("live object %s, want %s", got, pre)
	}
	in, err := db.Catalog().Instance("Cls")
	if err != nil {
		t.Fatal(err)
	}
	if label, _ := in.Classifier.Classify(text); label != "Disease" {
		t.Fatalf("the retrained model classifies %q as %s; the test needs a label change", text, label)
	}
	db.Close()

	back, _ := openDurable(t, dir)
	if got := back.StoredEnvelope("birds", 1).Render(); got != pre {
		t.Errorf("recovered object %s, want the live %s", got, pre)
	}
	if n := summarizeCalls(back); n != 0 {
		t.Errorf("recovery summarized %d time(s), want 0", n)
	}

	// RebuildSummaries is what refreshes labels, and it is logged: the
	// refreshed label outlives a restart.
	if _, err := back.RebuildSummaries("birds"); err != nil {
		t.Fatal(err)
	}
	back.Close()
	again, _ := openDurable(t, dir)
	if got := again.StoredEnvelope("birds", 1).Render(); got != post {
		t.Errorf("recovered after RebuildSummaries: %s, want %s", got, post)
	}
}
