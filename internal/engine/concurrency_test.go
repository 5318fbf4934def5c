package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentQueriesAndWrites hammers the engine with parallel readers
// (queries, zoom-ins, EXPLAIN ANALYZE, cancelled statements) and writers
// (inserts, annotations) to exercise the statement-level lock and the
// per-statement execution contexts. Run with -race.
func TestConcurrentQueriesAndWrites(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 1")
	seed, err := db.Query(context.Background(), "SELECT id, name FROM birds")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := db.Query(context.Background(),
					"SELECT id, name, wingspan FROM birds WHERE id <= 3"); err != nil {
					report(fmt.Errorf("query: %w", err))
					return
				}
				if _, _, err := db.ZoomIn(context.Background(), ZoomInRequest{
					QID: seed.QID, Instance: "ClassBird1", Index: 1,
				}); err != nil {
					report(fmt.Errorf("zoom: %w", err))
					return
				}
				if _, err := db.Exec(context.Background(), "EXPLAIN ANALYZE SELECT id, name FROM birds WHERE id <= 2"); err != nil {
					report(fmt.Errorf("explain analyze: %w", err))
					return
				}
			}
		}(g)
	}
	// Cancelled statements interleaved with live ones must fail cleanly
	// without disturbing either side.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 30; i++ {
			if _, err := db.Query(cancelled, "SELECT id FROM birds"); !errors.Is(err, context.Canceled) {
				report(fmt.Errorf("cancelled query: got %v, want context.Canceled", err))
				return
			}
		}
	}()
	// Writers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.Exec(context.Background(), fmt.Sprintf(
					"ADD ANNOTATION 'found eating stonewort round %d-%d' ON birds WHERE id = %d",
					g, i, i%3+1)); err != nil {
					report(fmt.Errorf("annotate: %w", err))
					return
				}
				if _, err := db.Exec(context.Background(), fmt.Sprintf(
					"INSERT INTO birds VALUES (%d, 'new bird', 'n', 1.0)", 100+g*100+i)); err != nil {
					report(fmt.Errorf("insert: %w", err))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Engine is consistent afterwards.
	res := mustExec(t, db, "SELECT COUNT(*) FROM birds")
	if got := res.Rows[0].Tuple[0].Int(); got != 3+60 {
		t.Errorf("final rows = %d, want 63", got)
	}
	if db.Annotations().Count() != 1+60 {
		t.Errorf("annotations = %d, want 61", db.Annotations().Count())
	}
}
