package engine

// This file reproduces, end to end, the worked examples the demonstration
// paper illustrates: the Figure 2 SPJ query with pipelined summary
// propagation, the Figure 3 zoom-in commands, and the Figure 4
// extensibility hierarchy. Each test is the deterministic half of the
// corresponding experiment in DESIGN.md (E2, E9, E10).

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/sql"
	"insightnotes/internal/summary"
)

// figure2DB assembles tables R(a,b,c,d) and S(x,y,z) with the paper's four
// summary instances and a Figure 2-shaped annotation population.
func figure2DB(t *testing.T) *DB {
	t.Helper()
	db := testDB(t)
	script := `
	CREATE TABLE R (a INT, b INT, c TEXT, d TEXT);
	CREATE TABLE S (x INT, y TEXT, z TEXT);
	INSERT INTO R VALUES (1, 2, 'c-val', 'd-val');
	INSERT INTO S VALUES (1, 'y-val', 'z-val');
	CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier
		LABELS ('Behavior', 'Disease', 'Anatomy', 'Other');
	TRAIN SUMMARY ClassBird1
		('found eating stonewort near shore', 'Behavior'),
		('observed feeding at dawn', 'Behavior'),
		('signs of avian influenza infection', 'Disease'),
		('wingspan measured large body', 'Anatomy'),
		('photo from trail camera attached', 'Other');
	CREATE SUMMARY INSTANCE ClassBird2 TYPE Classifier
		LABELS ('Provenance', 'Comment', 'Question');
	TRAIN SUMMARY ClassBird2
		('derived from experiment dataset source', 'Provenance'),
		('value looks wrong needs checking', 'Comment'),
		('is this the right species', 'Question');
	CREATE SUMMARY INSTANCE SimCluster TYPE Cluster WITH (threshold = 0.3, mergebysim = TRUE);
	CREATE SUMMARY INSTANCE TextSummary1 TYPE Snippet WITH (sentences = 1);
	LINK SUMMARY ClassBird1 TO R;
	LINK SUMMARY ClassBird2 TO R;
	LINK SUMMARY SimCluster TO R;
	LINK SUMMARY TextSummary1 TO R;
	LINK SUMMARY ClassBird2 TO S;
	LINK SUMMARY SimCluster TO S;
	`
	if _, err := db.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFigure2WorkedExample drives the paper's example query
//
//	Select r.a, r.b, s.z From R r, S s Where r.a = s.x And r.b = 2
//
// over a Figure 2-shaped annotation population and verifies every effect
// the figure narrates.
func TestFigure2WorkedExample(t *testing.T) {
	db := figure2DB(t)

	annotate := func(text string, specs []TargetSpec) annotation.ID {
		t.Helper()
		id, _, err := db.AnnotateTargets(annotation.Annotation{Text: text, Author: "demo"}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	rCols := func(cols ...string) []TargetSpec { return []TargetSpec{{Table: "R", Columns: cols}} }
	sCols := func(cols ...string) []TargetSpec { return []TargetSpec{{Table: "S", Columns: cols}} }

	// --- R's annotations ---
	// Comments on kept columns (a, b): 4 of them.
	var keptComments []annotation.ID
	for i := 0; i < 4; i++ {
		keptComments = append(keptComments,
			annotate("value looks wrong needs checking again", rCols("a", "b")))
	}
	// Comments only on projected-out columns (c, d): 2 — their effect must
	// vanish at the projection step.
	annotate("value looks wrong here too", rCols("c", "d"))
	annotate("value needs checking on this field", rCols("c"))
	// A provenance note on (a).
	annotate("derived from experiment dataset", rCols("a"))
	// Snippet documents: Experiment E on (a, b); Wikipedia article on (c) —
	// the figure deletes the Wikipedia article at projection.
	if _, _, err := db.AnnotateTargets(annotation.Annotation{
		Text: "experiment writeup", Title: "Experiment E",
		Document: "Experiment E measured feeding rates. The rates were high near stonewort beds.",
	}, rCols("a", "b")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.AnnotateTargets(annotation.Annotation{
		Text: "wikipedia link", Title: "Wikipedia article",
		Document: "The swan goose is a large goose. It breeds in Mongolia and China.",
	}, rCols("c")); err != nil {
		t.Fatal(err)
	}

	// --- S's annotations ---
	// Comments on kept columns (x, z): 3.
	for i := 0; i < 3; i++ {
		annotate("value looks wrong check the record", sCols("x", "z"))
	}
	// A comment only on y: must vanish.
	annotate("value wrong on the y attribute only", sCols("y"))

	// --- shared annotations: attached to BOTH r and s (2 of them) ---
	for i := 0; i < 2; i++ {
		annotate("value looks wrong on both linked records",
			[]TargetSpec{{Table: "R", Columns: []string{"a", "b"}}, {Table: "S", Columns: []string{"x", "z"}}})
	}

	res := mustExec(t, db, "Select r.a, r.b, s.z From R r, S s Where r.a = s.x And r.b = 2")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Tuple[0].Int() != 1 || row.Tuple[1].Int() != 2 || row.Tuple[2].Str() != "z-val" {
		t.Fatalf("tuple = %v", row.Tuple)
	}
	env := row.Env

	// (1) Projection curated away every annotation scoped to r.c, r.d, and
	// s.y: ClassBird2's Comment count is 4 (R kept) + 3 (S kept) +
	// 2 (shared, counted ONCE) = 9, not 11.
	cb2 := env.Object("ClassBird2")
	if cb2 == nil {
		t.Fatal("ClassBird2 missing from output")
	}
	r2 := cb2.Render()
	if !strings.Contains(r2, "(Comment, 9)") {
		t.Errorf("ClassBird2 = %s, want (Comment, 9) — shared annotations deduplicated", r2)
	}
	// Provenance = 2: the explicit provenance note plus the Experiment E
	// document annotation, whose body text also classifies as provenance.
	if !strings.Contains(r2, "(Provenance, 2)") {
		t.Errorf("ClassBird2 = %s, want (Provenance, 2)", r2)
	}

	// (2) ClassBird1 and TextSummary1 exist only on r and propagate
	// through the join without counterpart objects.
	cb1 := env.Object("ClassBird1")
	if cb1 == nil || cb1.Len() == 0 {
		t.Error("ClassBird1 did not propagate")
	}
	snp := env.Object("TextSummary1")
	if snp == nil || snp.Len() != 1 {
		t.Fatalf("TextSummary1 = %v", snp)
	}
	sr := snp.Render()
	if !strings.Contains(sr, "Experiment E") {
		t.Errorf("snippet = %s, want Experiment E kept", sr)
	}
	if strings.Contains(sr, "Wikipedia") {
		t.Errorf("snippet = %s, want Wikipedia article deleted at projection", sr)
	}

	// (3) SimCluster merged across the join: overlapping/similar comment
	// groups combined (mergebysim), totals reflect deduplication.
	clu := env.Object("SimCluster")
	if clu == nil {
		t.Fatal("SimCluster missing")
	}
	// 4 R comments + 3 S comments + 2 shared + 1 provenance + 2 doc
	// annotations' texts... cluster members = every surviving annotation
	// summarized under SimCluster: 4+3+2+1(provenance)+1(experiment doc,
	// text "experiment writeup") = 11.
	if clu.Len() != 11 {
		t.Errorf("SimCluster members = %d, want 11: %s", clu.Len(), clu.Render())
	}

	// (4) The join column s.x was projected out at the end: output has 3
	// columns and no coverage bit beyond them.
	if len(row.Tuple) != 3 {
		t.Errorf("output width = %d", len(row.Tuple))
	}
	env.EachCover(func(id annotation.ID, cover annotation.ColSet) {
		for i := 3; i < 64; i++ {
			if cover.Has(i) {
				t.Errorf("annotation %d covers dropped column %d", id, i)
			}
		}
	})
}

// TestFigure2ClusterRepReplacement reproduces the A5-replaces-A2 detail:
// projecting out the column holding a cluster representative elects a new
// representative from the surviving members.
func TestFigure2ClusterRepReplacement(t *testing.T) {
	db := figure2DB(t)
	// Build one similar-content group: two annotations on kept columns,
	// and one — textually the most central — only on column c.
	mk := func(text string, cols ...string) annotation.ID {
		id, _, err := db.AnnotateTargets(annotation.Annotation{Text: text},
			[]TargetSpec{{Table: "R", Columns: cols}})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mk("swan feeding stonewort lake", "a")
	mk("swan feeding stonewort lake shore", "b")
	repCandidate := mk("swan feeding stonewort lake shore observed", "c")

	stored := db.EnvelopeFor("R", 1)
	cluBefore := stored.Object("SimCluster").(interface {
		Representatives() []annotation.ID
	})
	_ = cluBefore

	res := mustExec(t, db, "SELECT a, b FROM R")
	env := res.Rows[0].Env
	clu := env.Object("SimCluster")
	if clu == nil || clu.Len() != 2 {
		t.Fatalf("cluster after projection = %v", clu)
	}
	for _, id := range clu.Members() {
		if id == repCandidate {
			t.Error("annotation on projected-out column survived")
		}
	}
	// A representative exists and is drawn from the survivors.
	reps := clu.(interface{ Representatives() []annotation.ID }).Representatives()
	if len(reps) == 0 || reps[0] == repCandidate {
		t.Errorf("representative not re-elected: %v", reps)
	}
}

// TestFigure3ZoomInCommands reproduces both zoom-in commands of Figure 3:
// retrieving the refuting annotations on matched tuples and retrieving a
// complete attached article.
func TestFigure3ZoomInCommands(t *testing.T) {
	db := testDB(t)
	script := `
	CREATE TABLE t (c1 TEXT, c2 TEXT, c3 INT);
	INSERT INTO t VALUES ('x', 'p', 5), ('x', 'q', 10), ('y', 'r', 7);
	CREATE SUMMARY INSTANCE NaiveBayesClass TYPE Classifier LABELS ('refute', 'approve');
	TRAIN SUMMARY NaiveBayesClass
		('value is wrong invalid experiment needs verification', 'refute'),
		('confirmed verified correct approved', 'approve');
	CREATE SUMMARY INSTANCE TextSummary TYPE Snippet WITH (sentences = 1);
	LINK SUMMARY NaiveBayesClass TO t;
	LINK SUMMARY TextSummary TO t;
	ADD ANNOTATION 'Value 5 is wrong' ON t WHERE c3 = 5;
	ADD ANNOTATION 'Needs verification' ON t WHERE c3 = 10;
	ADD ANNOTATION 'Invalid experiment' ON t WHERE c3 = 10;
	ADD ANNOTATION 'approved and confirmed by curator' ON t WHERE c3 = 5;
	ADD ANNOTATION 'approved reference confirmed' TITLE 'Wikipedia article'
		DOCUMENT 'Full wikipedia article body. It has every detail.' ON t WHERE c3 = 5;
	ADD ANNOTATION 'verified correct approved writeup' TITLE 'Experiment E'
		DOCUMENT 'Experiment E full writeup. Methods and results.' ON t WHERE c3 = 5;
	`
	if _, err := db.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT c1, c2, c3 FROM t")
	qid := res.QID

	// Figure 3(a): ZoomIn Reference QID Where C1 = 'x' On NaiveBayesClass
	// Index 1 → the refuting annotations: one on r1, two on r2.
	zoomA := mustExec(t, db, sqlZoom(qid, "WHERE c1 = 'x'", "NaiveBayesClass", 1))
	if zoomA.Count != 3 {
		t.Fatalf("zoom (a) retrieved %d annotations, want 3: %v", zoomA.Count, zoomA.Message)
	}
	texts := map[string]bool{}
	for _, zr := range zoomA.ZoomAnnotations {
		for _, a := range zr.Annotations {
			texts[a.Text] = true
		}
	}
	for _, want := range []string{"Value 5 is wrong", "Needs verification", "Invalid experiment"} {
		if !texts[want] {
			t.Errorf("refuting annotation %q missing; got %v", want, texts)
		}
	}
	if texts["approved and confirmed by curator"] {
		t.Error("approving annotation returned by refute zoom")
	}

	// Figure 3(b): ZoomIn ... Where C3 = 5 On TextSummary Index 2 → the
	// complete Wikipedia article on r1 (entries in id order: Experiment E
	// doc was added after the wiki doc, so order by annotation id:
	// wiki=5, experiment=6 → index 2 is Experiment E).
	zoomB := mustExec(t, db, sqlZoom(qid, "WHERE c3 = 5", "TextSummary", 2))
	if zoomB.Count != 1 {
		t.Fatalf("zoom (b) retrieved %d annotations", zoomB.Count)
	}
	doc := zoomB.ZoomAnnotations[0].Annotations[0]
	if doc.Title != "Experiment E" || !strings.Contains(doc.Document, "full writeup") {
		t.Errorf("zoom (b) = %+v", doc)
	}
	// Index 1 is the Wikipedia article, returned with its full body.
	zoomC := mustExec(t, db, sqlZoom(qid, "WHERE c3 = 5", "TextSummary", 1))
	if zoomC.Count != 1 || zoomC.ZoomAnnotations[0].Annotations[0].Title != "Wikipedia article" {
		t.Fatalf("zoom (c) = %+v", zoomC.ZoomAnnotations)
	}
	if !strings.Contains(zoomC.ZoomAnnotations[0].Annotations[0].Document, "every detail") {
		t.Error("zoom did not return the complete document")
	}

	// Out-of-range index errors.
	if _, err := db.Exec(context.Background(), sqlZoom(qid, "", "NaiveBayesClass", 9)); err == nil {
		t.Error("bad index accepted")
	}
	// Unknown QID errors.
	if _, err := db.Exec(context.Background(), sqlZoom(99999, "", "NaiveBayesClass", 1)); err == nil {
		t.Error("unknown QID accepted")
	}
}

func sqlZoom(qid int, where, instance string, index int) string {
	s := fmt.Sprintf("ZOOMIN REFERENCE QID %d", qid)
	if where != "" {
		s += " " + where
	}
	return fmt.Sprintf("%s ON %s INDEX %d", s, instance, index)
}

// TestFigure4ExtensibilityHierarchy exercises the three-level hierarchy:
// built-in types, admin-defined instances with properties and training
// models, and many-to-many links whose changes reflect in the maintained
// objects.
func TestFigure4ExtensibilityHierarchy(t *testing.T) {
	db := testDB(t)
	script := `
	CREATE TABLE genes (gid INT, symbol TEXT);
	CREATE TABLE birds (id INT, name TEXT);
	INSERT INTO genes VALUES (1, 'BRCA2');
	INSERT INTO birds VALUES (1, 'Swan Goose');
	CREATE SUMMARY INSTANCE GeneClass TYPE Classifier
		LABELS ('FunctionPrediction', 'Provenance', 'Comment');
	TRAIN SUMMARY GeneClass
		('predicted to regulate dna repair function', 'FunctionPrediction'),
		('imported from genbank release', 'Provenance'),
		('please double check this entry', 'Comment');
	CREATE SUMMARY INSTANCE BirdClass TYPE Classifier
		LABELS ('Behavior', 'Disease', 'Anatomy', 'Other');
	TRAIN SUMMARY BirdClass
		('feeding behavior observed', 'Behavior'),
		('influenza infection signs', 'Disease'),
		('wingspan and body size', 'Anatomy'),
		('miscellaneous note', 'Other');
	`
	if _, err := db.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	// Level 2: instances are registered with their configuration.
	in, err := db.Catalog().Instance("GeneClass")
	if err != nil {
		t.Fatal(err)
	}
	if in.Type != summary.TypeClassifier || !in.Props.SummarizeOnce() {
		t.Errorf("instance config = %+v", in.Props)
	}
	// Many-to-many: one instance on two relations, two instances on one.
	for _, stmt := range []string{
		"LINK SUMMARY GeneClass TO genes",
		"LINK SUMMARY GeneClass TO birds",
		"LINK SUMMARY BirdClass TO birds",
	} {
		mustExec(t, db, stmt)
	}
	if got := db.Catalog().TablesFor("GeneClass"); len(got) != 2 {
		t.Errorf("TablesFor = %v", got)
	}
	mustExec(t, db, "ADD ANNOTATION 'imported from genbank release 42' ON genes")
	mustExec(t, db, "ADD ANNOTATION 'feeding behavior observed at dawn' ON birds")
	// Level 3: each linked relation's tuples carry the instance's objects.
	if env := db.EnvelopeFor("genes", 1); env.Object("GeneClass") == nil {
		t.Error("genes tuple missing GeneClass object")
	}
	env := db.EnvelopeFor("birds", 1)
	if env.Object("GeneClass") == nil || env.Object("BirdClass") == nil {
		t.Errorf("birds tuple objects = %v", env.InstanceNames())
	}
	// Different instances classify the same annotation under their own
	// label sets.
	if !strings.Contains(env.Object("BirdClass").Render(), "(Behavior, 1)") {
		t.Errorf("BirdClass = %s", env.Object("BirdClass").Render())
	}
}

// TestZoomInProgrammaticWhere exercises the programmatic ZoomIn API with a
// parsed predicate.
func TestZoomInProgrammaticWhere(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'influenza infection suspected' ON birds WHERE id = 2")
	res := mustExec(t, db, "SELECT id, name FROM birds")
	stmt, _ := sql.Parse("SELECT x FROM t WHERE id = 2")
	where := stmt.(*sql.Select).Where
	out, hit, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Where: where, Instance: "ClassBird1", Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("expected cache hit immediately after query")
	}
	if len(out) != 1 || len(out[0].Annotations) != 1 {
		t.Fatalf("zoom = %+v", out)
	}
	if out[0].Annotations[0].Text != "influenza infection suspected" {
		t.Errorf("annotation = %q", out[0].Annotations[0].Text)
	}
}
