package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"insightnotes/internal/annotation"
	"insightnotes/internal/difftest"
	"insightnotes/internal/exec"
	"insightnotes/internal/plan"
	"insightnotes/internal/workload"
)

// randomDB builds a randomized two-table database with instances, links,
// and annotations (including multi-target and column-scoped ones), all
// derived from seed.
func randomDB(t *testing.T, seed int64) *DB {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := workload.New(seed)
	db := testDB(t)
	script := `
	CREATE TABLE R (a INT, b INT, c TEXT);
	CREATE TABLE S (x INT, y TEXT);
	CREATE SUMMARY INSTANCE Cls TYPE Classifier LABELS ('Behavior', 'Disease', 'Anatomy', 'Other');
	CREATE SUMMARY INSTANCE Clu TYPE Cluster WITH (threshold = 0.3);
	CREATE SUMMARY INSTANCE Snp TYPE Snippet WITH (sentences = 2);
	LINK SUMMARY Cls TO R;
	LINK SUMMARY Clu TO R;
	LINK SUMMARY Snp TO R;
	LINK SUMMARY Cls TO S;
	LINK SUMMARY Clu TO S;
	`
	if _, err := db.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	if err := db.TrainClassifier("Cls", g.TrainingSet(workload.BirdClasses, 6)); err != nil {
		t.Fatal(err)
	}
	// R is large enough that some seeds read it through a keyed probe
	// (the break-even is (rows - 4) / 7 distinct build keys).
	nR, nS := 2+r.Intn(60), 2+r.Intn(3)
	bs := make([]int, nR)
	for i := range bs {
		bs[i] = r.Intn(3)
		mustExec(t, db, fmt.Sprintf("INSERT INTO R VALUES (%d, %d, 'c%d')", i+1, bs[i], i))
	}
	for i := 0; i < nS; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO S VALUES (%d, 'y%d')", i%nR+1, i))
	}
	rCols := [][]string{nil, {"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}}
	sCols := [][]string{nil, {"x"}, {"y"}}
	// S.x values cover 1..min(nR, nS), so filters must stay in that range.
	xMax := nR
	if nS < nR {
		xMax = nS
	}
	nAnn := 5 + r.Intn(15)
	for i := 0; i < nAnn; i++ {
		class := workload.BirdClasses[r.Intn(4)]
		a := annotation.Annotation{Text: g.ClassText(class), Author: g.AuthorName()}
		if r.Intn(8) == 0 {
			a.Title, a.Document = g.Document(class, 4)
		}
		var specs []TargetSpec
		if r.Intn(4) == 0 {
			// Multi-target across both tables.
			specs = []TargetSpec{
				{Table: "R", Columns: rCols[r.Intn(len(rCols))], Where: parseWhere(t, fmt.Sprintf("a = %d", r.Intn(nR)+1))},
				{Table: "S", Columns: sCols[r.Intn(len(sCols))], Where: parseWhere(t, fmt.Sprintf("x = %d", r.Intn(xMax)+1))},
			}
		} else if r.Intn(3) == 0 {
			// Every R row with one b value: a GROUP BY b merges each later
			// row's group holding this annotation into the group it adopted
			// from an earlier row.
			specs = []TargetSpec{{Table: "R", Columns: rCols[r.Intn(len(rCols))],
				Where: parseWhere(t, fmt.Sprintf("b = %d", bs[r.Intn(nR)]))}}
		} else if r.Intn(2) == 0 {
			specs = []TargetSpec{{Table: "R", Columns: rCols[r.Intn(len(rCols))],
				Where: parseWhere(t, fmt.Sprintf("a = %d", r.Intn(nR)+1))}}
		} else {
			specs = []TargetSpec{{Table: "S", Columns: sCols[r.Intn(len(sCols))],
				Where: parseWhere(t, fmt.Sprintf("x = %d", r.Intn(xMax)+1))}}
		}
		if _, _, err := db.AnnotateTargets(a, specs); err != nil {
			t.Fatalf("seed %d annotation %d: %v", seed, i, err)
		}
	}
	addBridgeRows(t, db)
	return db
}

// bridgeB is the b value of the rows addBridgeRows adds; random rows take
// b in 0..2.
const bridgeB = 3

// bridgeTexts are the cluster-relevant texts addBridgeRows attaches, in id
// order: w alone on the first row, x on rows x and xzy, z on xzy, y on rows
// y and xzy. Row xzy receives x, then z (close to x, and to y once z is in
// the centroid), then y, so it holds one group {x, z, y}; rows x and y hold
// x and y in groups of their own.
var bridgeTexts = []struct{ text, rows string }{
	{"falcon talon falcon talon", "c = 'w'"},
	{"heron estuary", "c = 'x' OR c = 'xzy'"},
	{"heron estuary plover marsh", "c = 'xzy'"},
	{"plover marsh", "c = 'y' OR c = 'xzy'"},
}

// addBridgeRows adds four R rows with b = bridgeB and a = 1 (so they join
// S), in the order w, x, y, xzy, annotated with bridgeTexts. A GROUP BY b
// (or a DISTINCT over b) combines them in that order: the accumulator takes
// w's cluster object, adopts the groups of x and of y by pointer, and then
// xzy's one group meets both adopted groups and bridges them. The random
// rows are annotated before these exist, so no random annotation reaches
// them.
func addBridgeRows(t *testing.T, db *DB) {
	t.Helper()
	for _, c := range []string{"w", "x", "y", "xzy"} {
		mustExec(t, db, fmt.Sprintf("INSERT INTO R VALUES (1, %d, '%s')", bridgeB, c))
	}
	for _, bt := range bridgeTexts {
		spec := TargetSpec{Table: "R", Where: parseWhere(t, bt.rows)}
		if _, _, err := db.AnnotateTargets(annotation.Annotation{Text: bt.text, Author: "bridge"}, []TargetSpec{spec}); err != nil {
			t.Fatalf("bridge annotation %q: %v", bt.text, err)
		}
	}
}

// TestSnapshotRoundTripProperty verifies that save→load preserves the
// whole state, every maintained summary envelope included, on randomized
// databases.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDB(t, seed)
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Logf("seed %d: save: %v", seed, err)
			return false
		}
		back, err := Load(&buf, Config{CacheDir: t.TempDir()})
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		want, werr := difftest.State(db)
		got, gerr := difftest.State(back)
		if d := difftest.Diff(got, want); werr != nil || gerr != nil || d != "" {
			t.Logf("seed %d: %v %v %s", seed, werr, gerr, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPlanEquivalenceRandomized verifies Theorems 1&2 end to end on
// randomized annotation populations: reversed join orders (and bare
// against qualified spellings) return the same bag of rows with
// Envelope.Equal summaries, and with R indexed on its join key the first
// query returns the same rows in the same order with and without index
// access paths and projection pushdown. Some cases read R through a keyed
// probe.
func TestPlanEquivalenceRandomized(t *testing.T) {
	queries := [][2]string{
		{
			"SELECT r.a, r.b, s.y FROM R r, S s WHERE r.a = s.x",
			"SELECT r.a, r.b, s.y FROM S s, R r WHERE r.a = s.x",
		},
		{
			"SELECT r.a, s.y FROM R r, S s WHERE r.a = s.x AND r.b >= 0",
			"SELECT r.a, s.y FROM S s, R r WHERE r.a = s.x AND r.b >= 0",
		},
		{
			"SELECT DISTINCT r.b, s.x FROM R r, S s WHERE r.a = s.x",
			"SELECT DISTINCT r.b, s.x FROM S s, R r WHERE r.a = s.x",
		},
		{
			"SELECT a, b, y FROM R r, S s WHERE a = x",
			"SELECT r.a, r.b, s.y FROM R r, S s WHERE r.a = s.x",
		},
	}
	keyed := 0
	f := func(seed int64, pick uint8) bool {
		db := randomDB(t, seed)
		mustExec(t, db, "CREATE INDEX ON R (a)")
		q := queries[int(pick)%len(queries)]
		r1 := mustExec(t, db, q[0])
		r2 := mustExec(t, db, q[1])
		r3, err := db.Query(context.Background(), q[0], WithPlanOptions(plan.Options{DisableIndexScan: true}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r4, err := db.Query(context.Background(), q[0], WithPlanOptions(plan.Options{DisableProjectionPushdown: true}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if slices.ContainsFunc(r1.Ops, func(op OpStat) bool { return op.Op == "index_keys_scan" }) {
			keyed++
		}
		if d := difftest.Rows(r1.Rows, r3.Rows); d != "" {
			t.Logf("seed %d: %q differs without index access paths: %s", seed, q[0], d)
			return false
		}
		if d := difftest.Rows(r1.Rows, r4.Rows); d != "" {
			t.Logf("seed %d: %q differs without projection pushdown: %s", seed, q[0], d)
			return false
		}
		if d := difftest.Bag(r2.Rows, r1.Rows); d != "" {
			t.Logf("seed %d: %q differs from %q: %s", seed, q[1], q[0], d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
	if keyed == 0 {
		t.Error("no case read R through a keyed probe (index_keys_scan)")
	}
}

// TestGroupByBridgesAdoptedGroups: in every randomDB a GROUP BY b fuses the
// two cluster groups its accumulator adopted from the x and y bridge rows
// (addBridgeRows), and the plans of Theorems 1&2 that reach the bridge rows
// through a join, in either join order and so in another combine order,
// agree on Envelope.Equal and on rendered text.
func TestGroupByBridgesAdoptedGroups(t *testing.T) {
	pairs := [][2]string{
		{
			"SELECT r.b, COUNT(*) FROM R r, S s WHERE r.a = s.x GROUP BY r.b",
			"SELECT r.b, COUNT(*) FROM S s, R r WHERE r.a = s.x GROUP BY r.b",
		},
		{
			"SELECT DISTINCT r.b, s.x FROM R r, S s WHERE r.a = s.x",
			"SELECT DISTINCT r.b, s.x FROM S s, R r WHERE r.a = s.x",
		},
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		db := randomDB(t, seed)
		res, err := db.Query(ctx, "SELECT b, COUNT(*) FROM R GROUP BY b")
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for _, row := range res.Rows {
			if row.Tuple[0].Int() != bridgeB {
				continue
			}
			for _, el := range row.Env.Object("Clu").Elements() {
				sizes = append(sizes, len(el.IDs))
			}
		}
		if fmt.Sprint(sizes) != "[1 3]" {
			t.Fatalf("seed %d: GROUP BY b = %d has cluster groups of sizes %v, want w alone and x, z, y bridged: [1 3]", seed, bridgeB, sizes)
		}
		for _, q := range pairs {
			r1, err := db.Query(ctx, q[0])
			if err != nil {
				t.Fatal(err)
			}
			r2, err := db.Query(ctx, q[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(r1.Rows) != len(r2.Rows) {
				t.Fatalf("seed %d: %d rows vs %d", seed, len(r1.Rows), len(r2.Rows))
			}
			byTuple := map[string]*exec.Row{}
			for _, row := range r1.Rows {
				byTuple[row.Tuple.String()] = row
			}
			for _, row := range r2.Rows {
				other, ok := byTuple[row.Tuple.String()]
				switch {
				case !ok:
					t.Errorf("seed %d %q: no row %s in the other join order", seed, q[1], row.Tuple)
				case (row.Env == nil) != (other.Env == nil):
					t.Errorf("seed %d %q: row %s has summaries in one join order only", seed, q[1], row.Tuple)
				case row.Env != nil && !row.Env.Equal(other.Env):
					t.Errorf("seed %d %q: row %s: envelopes differ:\n%s\nvs\n%s", seed, q[1], row.Tuple, row.Env.Render(), other.Env.Render())
				case row.Env != nil && row.Env.Render() != other.Env.Render():
					t.Errorf("seed %d %q: row %s: renderings differ:\n%s\nvs\n%s", seed, q[1], row.Tuple, row.Env.Render(), other.Env.Render())
				}
			}
		}
	}
}
