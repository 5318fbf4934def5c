package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"insightnotes/internal/failpoint"
	"insightnotes/internal/plan"
	"insightnotes/internal/types"
)

// The crash-recovery suite: random mutation streams run against a
// durable database and an in-memory shadow, a crash is injected at every
// registered failpoint in the WAL and snapshot write paths, and the
// database recovered from disk must equal the shadow exactly — tables,
// rows, annotations, instances with trained models, id allocators, and
// rebuilt summary objects.
//
// Crash semantics per failpoint (what the durable side must show after
// kill + recovery, relative to the statement that hit the crash):
//
//   - fp/wal/append_before: the process died before the record reached
//     the file — the statement is not durable.
//   - fp/wal/append_partial: half the frame reached the file — recovery
//     truncates the torn record; the statement is not durable.
//   - fp/wal/append_before_sync: the full frame reached the file but
//     fsync never ran. Killing a process does not drop the page cache,
//     so in this simulation the record survives — the statement IS
//     durable (the client saw an error; an error answer promises
//     nothing either way).
//   - fp/engine/checkpoint_*: the crash hits the checkpoint itself;
//     every acknowledged statement must survive through the WAL or the
//     published snapshot, whichever ordering the crash left behind.

type crashScenario struct {
	name string
	fp   string
	// checkpoint: inject the crash into a CHECKPOINT instead of a
	// mutation statement.
	checkpoint bool
	// crashedDurable: the statement that hit the crash survives
	// recovery (see the semantics table above).
	crashedDurable bool
	// wantTorn: recovery must report a torn tail.
	wantTorn bool
}

var crashScenarios = []crashScenario{
	{name: "append_before", fp: failpoint.WALAppendBefore},
	{name: "append_partial", fp: failpoint.WALAppendPartial, wantTorn: true},
	{name: "append_before_sync", fp: failpoint.WALAppendBeforeSync, crashedDurable: true},
	{name: "checkpoint_snapshot_write", fp: failpoint.CheckpointSnapshotWrite, checkpoint: true},
	{name: "checkpoint_before_rename", fp: failpoint.CheckpointBeforeRename, checkpoint: true},
	{name: "checkpoint_after_rename", fp: failpoint.CheckpointAfterRename, checkpoint: true},
}

// crashWorkload drives the same random mutation stream into any number
// of databases, keeping its own bookkeeping of live rows and annotation
// ids so generated statements are always well-formed.
type crashWorkload struct {
	rng    *rand.Rand
	nextID int   // next value for the id column
	live   []int // id-column values currently in the table
	anns   int   // annotations added so far (ids are sequential from 1)
	// annRow maps live annotation ids to the id-column value they
	// target: deleting a row orphans (and removes) its annotations, so
	// the generator must stop referencing them.
	annRow map[int]int
}

func newCrashWorkload(seed int64) *crashWorkload {
	return &crashWorkload{rng: rand.New(rand.NewSource(seed)), nextID: 1, annRow: map[int]int{}}
}

// scaffold returns the fixed schema-setup statements.
func (w *crashWorkload) scaffold() []string {
	return []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"CREATE INDEX ON birds (id)",
		"CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')",
		"CREATE SUMMARY INSTANCE S TYPE Snippet",
		"LINK SUMMARY C TO birds",
		"LINK SUMMARY S TO birds",
	}
}

// next generates one random mutation statement. Statements either fully
// succeed or fail before mutating anything, so every database given the
// same stream ends in the same state.
func (w *crashWorkload) next() string {
	for {
		switch w.rng.Intn(10) {
		case 0, 1, 2: // insert
			id := w.nextID
			w.nextID++
			w.live = append(w.live, id)
			return fmt.Sprintf("INSERT INTO birds VALUES (%d, 'bird-%d')", id, id)
		case 3: // update
			if len(w.live) == 0 {
				continue
			}
			id := w.live[w.rng.Intn(len(w.live))]
			return fmt.Sprintf("UPDATE birds SET name = 'seen-%d' WHERE id = %d", w.rng.Intn(100), id)
		case 4: // delete (orphans the row's annotations)
			if len(w.live) < 3 {
				continue
			}
			i := w.rng.Intn(len(w.live))
			id := w.live[i]
			w.live = append(w.live[:i], w.live[i+1:]...)
			for ann, row := range w.annRow {
				if row == id {
					delete(w.annRow, ann)
				}
			}
			return fmt.Sprintf("DELETE FROM birds WHERE id = %d", id)
		case 5, 6, 7: // annotate a live row
			if len(w.live) == 0 {
				continue
			}
			id := w.live[w.rng.Intn(len(w.live))]
			w.anns++
			w.annRow[w.anns] = id
			return fmt.Sprintf("ADD ANNOTATION 'observed behavior %d feeding' ON birds WHERE id = %d", w.anns, id)
		case 8: // train the classifier
			return fmt.Sprintf("TRAIN SUMMARY C ('feeding foraging sample %d', 'Behavior')", w.rng.Intn(50))
		default: // drop an annotation that still exists
			if len(w.annRow) == 0 {
				continue
			}
			ids := make([]int, 0, len(w.annRow))
			for ann := range w.annRow {
				ids = append(ids, ann)
			}
			sort.Ints(ids)
			id := ids[w.rng.Intn(len(ids))]
			delete(w.annRow, id)
			return fmt.Sprintf("DROP ANNOTATION %d", id)
		}
	}
}

// canonicalState renders a database's full durable state — its
// checkpoint's decoded records — with each table's rows merged into one
// insert record in id order (heap scan order after deletes legitimately
// differs between continuous execution and checkpoint+replay recovery,
// and with it where the insert chunks break).
func canonicalState(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	recs, trailer := checkpointRecords(t, buf.Bytes())
	var out bytes.Buffer
	var rows *walRows
	flushRows := func() {
		if rows != nil {
			sort.Slice(rows.Rows, func(a, b int) bool { return rows.Rows[a].ID < rows.Rows[b].ID })
			fmt.Fprintf(&out, "%s %+v\n", walTypeInsert, rows)
			rows = nil
		}
	}
	for _, r := range recs {
		if ins, ok := r.p.(*walRows); ok {
			if rows == nil {
				rows = &walRows{Table: ins.Table}
			}
			rows.Rows = append(rows.Rows, ins.Rows...)
			continue
		}
		flushRows()
		if in, ok := r.p.(*walCreateInstance); ok {
			fmt.Fprintf(&out, "%s %x\n", r.typ, encodeWALBody(in))
			continue
		}
		fmt.Fprintf(&out, "%s %+v\n", r.typ, r.p)
	}
	trailer.Records = 0
	fmt.Fprintf(&out, "%s %+v\n", walTypeCheckpoint, trailer)
	return out.Bytes()
}

// compareRecovered asserts got (the recovered durable DB) matches want
// (the shadow) on its durable state, stored summary objects included, and
// on summary objects rebuilt from the raw annotations.
func compareRecovered(t *testing.T, got, want *DB) {
	t.Helper()
	g, w := canonicalState(t, got), canonicalState(t, want)
	if !bytes.Equal(g, w) {
		t.Fatalf("recovered state diverges from shadow replay\nrecovered: %s\nshadow:    %s", g, w)
	}
	for _, db := range []*DB{got, want} {
		if _, err := db.RebuildSummaries("birds"); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range want.Annotations().AnnotatedRows("birds") {
		ge, we := got.EnvelopeFor("birds", row), want.EnvelopeFor("birds", row)
		if we == nil {
			continue
		}
		if ge == nil {
			t.Fatalf("row %d: recovered DB lost its summary envelope", row)
		}
		if ge.Render() != we.Render() {
			t.Fatalf("row %d summary diverges\nrecovered: %s\nshadow:    %s", row, ge.Render(), we.Render())
		}
	}
}

// TestCrashBetweenHeapAndIndexInsert covers the storage-layer crash
// window: Table.InsertWithID writes the row to the heap, then updates every
// secondary index, and only after the statement succeeds does the engine
// log it to the WAL. fp/catalog/insert_index kills the process after the
// heap write but before the index insert — the dying engine is visibly
// inconsistent (heap holds the row, the id index does not, the WAL never
// heard of the statement), and recovery must replay to a state where
// heap, secondary index, and the in-memory shadow all agree, with the
// crashed row absent everywhere.
func TestCrashBetweenHeapAndIndexInsert(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	ctx := context.Background()

	dir := t.TempDir()
	db, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := Open(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	wl := newCrashWorkload(7200)
	run := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(ctx, stmt); err != nil {
			t.Fatalf("durable %q: %v", stmt, err)
		}
		if _, err := shadow.Exec(ctx, stmt); err != nil {
			t.Fatalf("shadow %q: %v", stmt, err)
		}
	}
	for _, stmt := range wl.scaffold() {
		run(stmt)
	}
	for i := 0; i < 24; i++ {
		run(wl.next())
		if i == 12 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatalf("mid-stream checkpoint: %v", err)
			}
		}
	}

	// Crash between the heap write and the index insert. The workload's
	// bookkeeping is NOT advanced: the statement never becomes durable,
	// so the shadow never runs it either.
	crashedID := wl.nextID
	stmt := fmt.Sprintf("INSERT INTO birds VALUES (%d, 'crashed-%d')", crashedID, crashedID)
	failpoint.EnableError(failpoint.CatalogInsertIndex, failpoint.CrashError(failpoint.CatalogInsertIndex))
	if _, err := db.Exec(ctx, stmt); err == nil {
		t.Fatalf("statement %q survived its injected crash", stmt)
	}
	failpoint.Disable(failpoint.CatalogInsertIndex)

	// The dying engine really is torn: its heap holds one more row than
	// the shadow's, while the id index has no entry for the crashed id.
	dying, err := db.cat.Table("birds")
	if err != nil {
		t.Fatal(err)
	}
	want, err := shadow.cat.Table("birds")
	if err != nil {
		t.Fatal(err)
	}
	if got := dying.Stats().Rows; got != want.Stats().Rows+1 {
		t.Fatalf("dying heap rows = %d, want shadow+1 = %d", got, want.Stats().Rows+1)
	}
	if ids, err := dying.LookupByIndex("id", types.NewInt(int64(crashedID))); err != nil || len(ids) != 0 {
		t.Fatalf("dying index lookup of crashed id = %v, %v; want no entries", ids, err)
	}

	// Kill and recover.
	db.Close()
	recovered, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	compareRecovered(t, recovered, shadow)

	// Heap and index agree again: the crashed row is gone from both, and
	// every id resolves identically through the index, a forced full
	// scan, and a direct B+tree probe.
	rt, err := recovered.cat.Table("birds")
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Rows; got != want.Stats().Rows {
		t.Fatalf("recovered heap rows = %d, want %d", got, want.Stats().Rows)
	}
	probe := append([]int{crashedID}, wl.live...)
	for _, id := range probe {
		q := fmt.Sprintf("SELECT name FROM birds WHERE id = %d", id)
		viaIndex, err := recovered.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		viaScan, err := recovered.Query(ctx, q, WithPlanOptions(plan.Options{DisableIndexScan: true}))
		if err != nil {
			t.Fatal(err)
		}
		if len(viaIndex.Rows) != len(viaScan.Rows) {
			t.Fatalf("id %d: index path returns %d rows, full scan %d", id, len(viaIndex.Rows), len(viaScan.Rows))
		}
		ids, err := rt.LookupByIndex("id", types.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(viaScan.Rows) {
			t.Fatalf("id %d: index holds %d entries, heap scan finds %d rows", id, len(ids), len(viaScan.Rows))
		}
	}

	// As far as durable state is concerned the crashed id was never
	// taken: inserting it again must succeed and show up in the index,
	// and the full crash-recover-continue cycle must keep converging
	// with the shadow.
	run2 := func(stmt string) {
		t.Helper()
		if _, err := recovered.Exec(ctx, stmt); err != nil {
			t.Fatalf("post-recovery durable %q: %v", stmt, err)
		}
		if _, err := shadow.Exec(ctx, stmt); err != nil {
			t.Fatalf("post-recovery shadow %q: %v", stmt, err)
		}
	}
	run2(fmt.Sprintf("INSERT INTO birds VALUES (%d, 'bird-%d')", crashedID, crashedID))
	wl.nextID++
	wl.live = append(wl.live, crashedID)
	for i := 0; i < 4; i++ {
		run2(wl.next())
	}
	if ids, err := rt.LookupByIndex("id", types.NewInt(int64(crashedID))); err != nil || len(ids) != 1 {
		t.Fatalf("re-inserted id not indexed: %v, %v", ids, err)
	}
	compareRecovered(t, recovered, shadow)
}

// TestCrashRecovery is the fault-injection suite described above. The
// -count flag re-runs it with the same seeds; scripts/check.sh runs it
// three times under the race detector.
func TestCrashRecovery(t *testing.T) {
	const ops = 24 // mutations before the crash point
	for si, sc := range crashScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			failpoint.Reset()
			defer failpoint.Reset()

			dir := t.TempDir()
			db, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			shadow, err := Open(durableConfig(t))
			if err != nil {
				t.Fatal(err)
			}

			seed := int64(7100 + si)
			wl := newCrashWorkload(seed)
			run := func(stmt string) {
				t.Helper()
				if _, err := db.Exec(context.Background(), stmt); err != nil {
					t.Fatalf("durable %q: %v", stmt, err)
				}
				if _, err := shadow.Exec(context.Background(), stmt); err != nil {
					t.Fatalf("shadow %q: %v", stmt, err)
				}
			}
			for _, stmt := range wl.scaffold() {
				run(stmt)
			}
			for i := 0; i < ops; i++ {
				run(wl.next())
				if i == ops/2 {
					// A clean mid-stream checkpoint, so recovery
					// exercises snapshot load + tail replay, not just
					// full-log replay.
					if _, err := db.Checkpoint(); err != nil {
						t.Fatalf("mid-stream checkpoint: %v", err)
					}
				}
			}

			// Inject the crash.
			failpoint.EnableError(sc.fp, failpoint.CrashError(sc.fp))
			if sc.checkpoint {
				if _, err := db.Checkpoint(); err == nil {
					t.Fatal("checkpoint survived its injected crash")
				}
			} else {
				crashed := wl.next()
				if _, err := db.Exec(context.Background(), crashed); err == nil {
					t.Fatalf("statement %q survived its injected crash", crashed)
				}
				if sc.crashedDurable {
					if _, err := shadow.Exec(context.Background(), crashed); err != nil {
						t.Fatalf("shadow %q: %v", crashed, err)
					}
				}
			}
			failpoint.Disable(sc.fp)

			// "Kill" the process: discard the in-memory engine without
			// any graceful persistence, then recover from disk.
			db.Close()
			recovered, info, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatalf("recovery after %s: %v", sc.name, err)
			}
			defer recovered.Close()
			if sc.wantTorn && !info.TornTruncated {
				t.Errorf("recovery = %+v, want a torn tail truncation", info)
			}

			compareRecovered(t, recovered, shadow)

			// The recovered engine must accept writes and survive one
			// more clean cycle (full crash-recover-continue loop).
			run2 := func(stmt string) {
				t.Helper()
				if _, err := recovered.Exec(context.Background(), stmt); err != nil {
					t.Fatalf("post-recovery durable %q: %v", stmt, err)
				}
				if _, err := shadow.Exec(context.Background(), stmt); err != nil {
					t.Fatalf("post-recovery shadow %q: %v", stmt, err)
				}
			}
			for i := 0; i < 4; i++ {
				run2(wl.next())
			}
			recovered.Close()
			final, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer final.Close()
			compareRecovered(t, final, shadow)
		})
	}
}
