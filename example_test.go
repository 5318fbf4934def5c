package insightnotes_test

import (
	"context"
	"fmt"
	"log"

	"insightnotes"
)

// Example shows the core flow: define a summary instance, annotate, query,
// and zoom in.
func Example() {
	db, err := insightnotes.Open(insightnotes.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	must := func(stmt string) *insightnotes.Result {
		res, err := db.Exec(context.Background(), stmt)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	must(`CREATE TABLE birds (id INT, name TEXT)`)
	must(`INSERT INTO birds VALUES (1, 'Swan Goose')`)
	must(`CREATE SUMMARY INSTANCE ClassBird TYPE Classifier LABELS ('Behavior', 'Disease')`)
	must(`TRAIN SUMMARY ClassBird
		('feeding foraging stonewort', 'Behavior'),
		('influenza infection lesions', 'Disease')`)
	must(`LINK SUMMARY ClassBird TO birds`)
	must(`ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1`)
	must(`ADD ANNOTATION 'influenza lesions on the bill' ON birds WHERE id = 1`)

	res, err := db.Query(context.Background(), `SELECT id, name FROM birds`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rows[0].Env.Render())

	zoom := must(fmt.Sprintf(`ZOOMIN REFERENCE QID %d ON ClassBird INDEX 2`, res.QID))
	fmt.Println(zoom.ZoomAnnotations[0].Annotations[0].Text)
	// Output:
	// ClassBird [(Behavior, 1), (Disease, 1)]
	// influenza lesions on the bill
}

// ExampleDB_Query shows summary-based predicates: filtering tuples by
// their annotation summaries.
func ExampleDB_Query() {
	db := insightnotes.MustOpen(insightnotes.Config{})
	defer db.Close()
	stmts := []string{
		`CREATE TABLE genes (gid INT, symbol TEXT)`,
		`INSERT INTO genes VALUES (1, 'BRCA2'), (2, 'TP53')`,
		`CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Comment', 'Provenance')`,
		`TRAIN SUMMARY C ('wrong check verify', 'Comment'), ('imported genbank source', 'Provenance')`,
		`LINK SUMMARY C TO genes`,
		`ADD ANNOTATION 'value looks wrong, please verify' ON genes WHERE gid = 1`,
		`ADD ANNOTATION 'second comment: still wrong' ON genes WHERE gid = 1`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(context.Background(), s); err != nil {
			log.Fatal(err)
		}
	}
	res, err := db.Query(context.Background(),
		`SELECT symbol FROM genes WHERE SUMMARY_COUNT(C, 'Comment') >= 2`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row.Tuple[0])
	}
	// Output:
	// BRCA2
}

// ExampleDB_SaveFile shows snapshot persistence.
func ExampleDB_SaveFile() {
	db := insightnotes.MustOpen(insightnotes.Config{})
	defer db.Close()
	db.Exec(context.Background(), `CREATE TABLE t (a INT)`)
	db.Exec(context.Background(), `INSERT INTO t VALUES (42)`)
	path := "/tmp/insightnotes-example.json"
	if err := db.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	back, err := insightnotes.LoadFile(path, insightnotes.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer back.Close()
	res, _ := back.Query(context.Background(), `SELECT a FROM t`)
	fmt.Println(res.Rows[0].Tuple[0])
	// Output:
	// 42
}
