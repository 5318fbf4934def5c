package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
	"insightnotes/internal/workload"
)

// Recovery restores exactly the summary objects the live engine maintains,
// whatever the history: a seeded stream of multi-target, column-scoped and
// document annotations, batches, DROP ANNOTATION, TRAIN between ingests
// and LINK/UNLINK after ingest, checkpointed at a random statement, is
// reopened under GOMAXPROCS 1 and 4 and installed on a replica by snapshot
// resync, with summarize-once on and off. Every stored envelope must be
// Envelope.Equal to the live one, and the reopened instances must have
// summarized exactly as often as the WAL tail implies: the checkpoint
// stores the objects, so it costs no Summarize call, and a resync none.
// The recovered engines must then stay equal to the live one under the
// same further annotations and DROP ANNOTATION (continueOn).
func TestRecoveryRebuildsLiveEnvelopes(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, once := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/once=%v", seed, once), func(t *testing.T) {
				oracleRecovery(t, seed, once)
			})
		}
	}
}

var oracleTables = []string{"R", "S"}

// oracleStream is the live side of one seeded run: the engine, the
// generators, and the Summarize calls its WAL tail implies.
type oracleStream struct {
	t    *testing.T
	db   *DB
	r    *rand.Rand
	g    *workload.Generator
	once bool
	nR   int
	ids  []annotation.ID // live annotations
	// tail counts the Summarize calls replaying the statements after the
	// checkpoint costs; counting starts once checkpointed is set.
	tail         int64
	checkpointed bool
}

func oracleRecovery(t *testing.T, seed int64, once bool) {
	cfg := func() Config {
		return Config{CacheDir: t.TempDir(), DisableMetrics: true, DisableSummarizeOnce: !once}
	}
	opts := func(dir string) DurabilityOptions { return DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1} }
	dir := t.TempDir()
	db, _, err := OpenDurable(cfg(), opts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := &oracleStream{t: t, db: db, r: rand.New(rand.NewSource(seed)), g: workload.New(seed), once: once}
	s.scaffold()

	const statements = 40
	at := s.r.Intn(statements + 1)
	for i := 0; i <= statements; i++ {
		if i == at {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatalf("seed %d: checkpoint: %v", seed, err)
			}
			s.checkpointed = true
		}
		if i < statements {
			s.step()
		}
	}
	live := envelopesOf(db)
	var resync bytes.Buffer
	if _, err := db.ReplicationSnapshot(&resync); err != nil {
		t.Fatal(err)
	}

	check := func(how string, got *DB, wantCalls int64) {
		t.Helper()
		if calls := summarizeCalls(got); calls != wantCalls {
			t.Errorf("seed %d %s: %d Summarize calls, want %d", seed, how, calls, wantCalls)
		}
		rebuilt := envelopesOf(got)
		for k, want := range live {
			if env := rebuilt[k]; env == nil || !env.Equal(want) {
				t.Errorf("seed %d %s: %s/%d:\n%v\nwant\n%s", seed, how, k.table, k.row, render(env), want.Render())
			}
		}
		for k, env := range rebuilt {
			if live[k] == nil {
				t.Errorf("seed %d %s: %s/%d has an envelope the live engine lacks:\n%s", seed, how, k.table, k.row, env.Render())
			}
		}
	}
	// reopen recovers a copy of the live engine's data directory; the log
	// is fsynced at every commit, so the copy is what a crash would leave.
	reopen := func() *DB {
		t.Helper()
		copyDir := t.TempDir()
		for _, name := range []string{snapshotFileName, walFileName} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err == nil {
				err = os.WriteFile(filepath.Join(copyDir, name), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		back, _, err := OpenDurable(cfg(), opts(copyDir))
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		return back
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var back *DB
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if back != nil {
			back.Close()
		}
		back = reopen()
		check(fmt.Sprintf("reopened at GOMAXPROCS=%d", procs), back, s.tail)
	}
	defer back.Close()
	replica, _, err := OpenDurable(cfg(), opts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if _, err := replica.InstallReplicaSnapshot(resync.Bytes()); err != nil {
		t.Fatalf("seed %d: resync: %v", seed, err)
	}
	check("resynced replica", replica, 0)
	if !t.Failed() {
		s.continueOn(back, replica)
	}
}

// continueOn feeds the same further annotations, and one DROP ANNOTATION
// of an annotation from before, to the live engine and to each recovered
// one, which must then hold Envelope.Equal envelopes and render the same
// SELECT output: a restored object carries everything later maintenance
// reads (a cluster group's centroid and candidates too).
func (s *oracleStream) continueOn(recovered ...*DB) {
	type request struct {
		a     annotation.Annotation
		specs []TargetSpec
	}
	var reqs []request
	for n := 0; n < 12; n++ {
		a, specs := s.request()
		reqs = append(reqs, request{a, specs})
	}
	var drop annotation.ID
	if len(s.ids) > 0 {
		drop = s.ids[s.r.Intn(len(s.ids))]
	}
	dbs := append([]*DB{s.db}, recovered...)
	for _, db := range dbs {
		for i, q := range reqs {
			id, _, err := db.AnnotateTargets(q.a, q.specs)
			if err != nil {
				s.t.Fatal(err)
			}
			if drop == 0 && i == 0 {
				drop = id
			}
		}
		if err := db.DropAnnotation(drop); err != nil {
			s.t.Fatal(err)
		}
	}
	want, wantOut := envelopesOf(s.db), selectOutput(s.t, s.db)
	for i, db := range recovered {
		got := envelopesOf(db)
		for k, env := range want {
			if g := got[k]; g == nil || !g.Equal(env) {
				s.t.Errorf("recovered engine %d after further maintenance: %s/%d:\n%v\nwant\n%s", i, k.table, k.row, render(g), env.Render())
			}
		}
		if len(got) != len(want) {
			s.t.Errorf("recovered engine %d holds %d envelopes, the live one %d", i, len(got), len(want))
		}
		if out := selectOutput(s.t, db); out != wantOut {
			s.t.Errorf("recovered engine %d renders\n%s\nthe live one\n%s", i, out, wantOut)
		}
	}
}

// selectOutput renders every row of R and S with its summaries, one line
// per row, sorted.
func selectOutput(t *testing.T, db *DB) string {
	var lines []string
	for _, q := range []string{"SELECT a, b, c FROM R", "SELECT x, y FROM S"} {
		for _, row := range mustExec(t, db, q).Rows {
			lines = append(lines, row.Tuple.String()+" "+render(row.Env))
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// scaffold creates R (one row per a, enough rows that a whole-table
// annotation spreads envelope writes over several workers) and S, two
// trained classifiers, a cluster and a snippet instance. Cls2 starts
// linked to R only, so a later LINK to S classifies a multi-target
// annotation's S rows under a newer model than its R rows.
func (s *oracleStream) scaffold() {
	s.nR = 70 + s.r.Intn(30)
	stmts := []string{
		"CREATE TABLE R (a INT, b INT, c TEXT)",
		"CREATE TABLE S (x INT, y TEXT)",
		"CREATE SUMMARY INSTANCE Cls TYPE Classifier LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')",
		"CREATE SUMMARY INSTANCE Cls2 TYPE Classifier LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')",
		"CREATE SUMMARY INSTANCE Clu TYPE Cluster WITH (threshold = 0.3)",
		"CREATE SUMMARY INSTANCE Snp TYPE Snippet WITH (sentences = 2)",
		"LINK SUMMARY Cls TO R", "LINK SUMMARY Clu TO R", "LINK SUMMARY Snp TO R", "LINK SUMMARY Cls2 TO R",
		"LINK SUMMARY Cls TO S", "LINK SUMMARY Clu TO S",
	}
	for i := 0; i < s.nR; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO R VALUES (%d, %d, 'c%d')", i+1, s.r.Intn(3), i))
	}
	for i := 0; i < 12; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO S VALUES (%d, 'y%d')", i%6+1, i))
	}
	for _, stmt := range stmts {
		mustExec(s.t, s.db, stmt)
	}
	for _, in := range []string{"Cls", "Cls2"} {
		if err := s.db.TrainClassifier(in, s.g.TrainingSet(workload.BirdClasses, 4)); err != nil {
			s.t.Fatal(err)
		}
	}
}

// step runs one random statement.
func (s *oracleStream) step() {
	db := s.db
	switch k := s.r.Intn(10); {
	case k < 4:
		a, specs := s.request()
		id, _, err := db.AnnotateTargets(a, specs)
		if err != nil {
			s.t.Fatal(err)
		}
		s.added(id)
	case k < 5:
		var reqs []AnnotationRequest
		for n := 2 + s.r.Intn(3); n > 0; n-- {
			a, specs := s.request()
			reqs = append(reqs, AnnotationRequest{Text: a.Text, Title: a.Title, Document: a.Document, Author: a.Author,
				Table: specs[0].Table, Columns: specs[0].Columns, Where: specs[0].Where})
		}
		ids, _, err := db.AnnotateBatch(reqs)
		if err != nil {
			s.t.Fatal(err)
		}
		for _, id := range ids {
			s.added(id)
		}
	case k < 6:
		if len(s.ids) == 0 {
			return
		}
		i := s.r.Intn(len(s.ids))
		if err := db.DropAnnotation(s.ids[i]); err != nil {
			s.t.Fatal(err)
		}
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	case k < 8:
		// Relabel texts of one class as another, so the retrained model
		// disagrees with labels given before it.
		from, to := s.g.PickClass(workload.BirdClasses), s.g.PickClass(workload.BirdClasses)
		var samples [][2]string
		for n := 0; n < 6; n++ {
			samples = append(samples, [2]string{s.g.ClassText(from), to})
		}
		if err := db.TrainClassifier([]string{"Cls", "Cls2"}[s.r.Intn(2)], samples); err != nil {
			s.t.Fatal(err)
		}
	default:
		in := []string{"Cls", "Cls2", "Clu", "Snp"}[s.r.Intn(4)]
		table := oracleTables[s.r.Intn(2)]
		linked := false
		for _, name := range db.cat.TablesFor(in) {
			linked = linked || name == table
		}
		if linked {
			if s.r.Intn(3) == 0 {
				if err := db.UnlinkInstance(in, table); err != nil {
					s.t.Fatal(err)
				}
			}
			return
		}
		if s.checkpointed {
			// The backfill summarizes every annotation of the table once,
			// or once per annotated row without summarize-once.
			seen := map[annotation.ID]bool{}
			for _, row := range db.anns.AnnotatedRows(table) {
				for _, ref := range db.anns.ForTuple(table, row) {
					if !s.once || !seen[ref.ID] {
						s.tail++
					}
					seen[ref.ID] = true
				}
			}
		}
		if err := db.LinkInstance(in, table); err != nil {
			s.t.Fatal(err)
		}
	}
}

// request draws one annotation and its scopes: a quarter multi-target
// across R and S, an eighth with a document, some column-scoped, some on
// every row of R.
func (s *oracleStream) request() (annotation.Annotation, []TargetSpec) {
	class := s.g.PickClass(workload.BirdClasses)
	a := annotation.Annotation{Text: s.g.ClassText(class), Author: s.g.AuthorName()}
	if s.r.Intn(8) == 0 {
		a.Title, a.Document = s.g.Document(class, 4)
	}
	rCols := [][]string{nil, {"a"}, {"b"}, {"c"}, {"a", "b"}}
	sCols := [][]string{nil, {"x"}, {"y"}}
	rSpec := TargetSpec{Table: "R", Columns: rCols[s.r.Intn(len(rCols))]}
	if s.r.Intn(6) > 0 {
		rSpec.Where = parseWhere(s.t, fmt.Sprintf("a = %d", s.r.Intn(s.nR)+1))
	}
	sSpec := TargetSpec{Table: "S", Columns: sCols[s.r.Intn(len(sCols))],
		Where: parseWhere(s.t, fmt.Sprintf("x = %d", s.r.Intn(6)+1))}
	switch s.r.Intn(4) {
	case 0:
		return a, []TargetSpec{rSpec, sSpec}
	case 1:
		return a, []TargetSpec{sSpec}
	}
	return a, []TargetSpec{rSpec}
}

// added records a new annotation and, after the checkpoint, the calls its
// replayed annotate record will make: everything linked to its targets'
// tables summarizes it.
func (s *oracleStream) added(id annotation.ID) {
	s.ids = append(s.ids, id)
	if s.checkpointed {
		s.tail += s.calls(id)
	}
}

// calls counts the Summarize calls maintaining annotation id costs under
// the linked instances: one per instance where summarize-once holds, one
// per target row and instance otherwise.
func (s *oracleStream) calls(id annotation.ID) int64 {
	var n int64
	seen := map[string]bool{}
	for _, tg := range s.db.anns.TargetsOf(id) {
		for _, in := range s.db.cat.InstancesFor(tg.Table) {
			if !s.once || !seen[in.Name] {
				n++
			}
			seen[in.Name] = true
		}
	}
	return n
}

type tableRow struct {
	table string
	row   types.RowID
}

// envelopesOf collects the stored envelope of every annotated row.
func envelopesOf(db *DB) map[tableRow]*summary.Envelope {
	out := map[tableRow]*summary.Envelope{}
	for _, table := range oracleTables {
		for _, row := range db.anns.AnnotatedRows(table) {
			if env := db.EnvelopeFor(table, row); env != nil {
				out[tableRow{table, row}] = env
			}
		}
	}
	return out
}

func summarizeCalls(db *DB) int64 {
	var n int64
	for _, name := range db.cat.InstanceNames() {
		in, _ := db.cat.Instance(name)
		n += in.SummarizeCalls()
	}
	return n
}

func render(env *summary.Envelope) string {
	if env == nil {
		return "(none)"
	}
	return env.Render()
}
