// Quickstart: the minimal InsightNotes flow — create a table, define and
// train a classifier summary instance, link it, annotate tuples, run a
// query that reports summary objects instead of raw annotations, and zoom
// in on one summary element to retrieve the raw annotations behind it.
package main

import (
	"context"
	"fmt"
	"log"

	"insightnotes"
)

func main() {
	ctx := context.Background()
	db, err := insightnotes.Open(insightnotes.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close() // removes the zoom-in spill directory Open created

	must := func(stmt string) *insightnotes.Result {
		res, err := db.Exec(ctx, stmt)
		if err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
		return res
	}

	// 1. A plain relational table.
	must(`CREATE TABLE birds (id INT, name TEXT, wingspan FLOAT)`)
	must(`INSERT INTO birds VALUES
		(1, 'Swan Goose', 1.8),
		(2, 'Mute Swan', 2.2),
		(3, 'Whooper Swan', 2.3)`)

	// 2. A summary instance: a four-class Naive Bayes classifier, trained
	// with a few labeled examples and linked to the table.
	must(`CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier
		LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')`)
	must(`TRAIN SUMMARY ClassBird1
		('found eating stonewort near the shore', 'Behavior'),
		('observed feeding at dawn in flocks', 'Behavior'),
		('signs of avian influenza infection', 'Disease'),
		('lesions suggest avian pox virus', 'Disease'),
		('wingspan measured at 1.8 meters', 'Anatomy'),
		('large body with long neck', 'Anatomy'),
		('photo attached from trail camera', 'Other'),
		('duplicate of an earlier record', 'Other')`)
	must(`LINK SUMMARY ClassBird1 TO birds`)

	// 3. Annotations stream in; summaries update incrementally.
	for _, text := range []string{
		"observed eating stonewort and grasses",
		"aggressive display toward other geese",
		"bird appears lethargic, influenza suspected",
		"wingspan looks larger than the recorded value",
	} {
		must(fmt.Sprintf(`ADD ANNOTATION '%s' AUTHOR 'watcher1' ON birds WHERE id = 1`, text))
	}

	// 4. Query: each result tuple carries its summary objects.
	res, err := db.Query(ctx, `SELECT id, name, wingspan FROM birds WHERE id = 1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query result:")
	for _, row := range res.Rows {
		fmt.Printf("  %v\n", row.Tuple)
		if row.Env != nil {
			fmt.Printf("    summaries: %s\n", row.Env.Render())
		}
	}
	fmt.Printf("  (QID = %d)\n\n", res.QID)

	// 5. Zoom in: expand the Behavior label (index 1) back into the raw
	// annotations.
	zoom := must(fmt.Sprintf(
		`ZOOMIN REFERENCE QID %d WHERE id = 1 ON ClassBird1 INDEX 1`, res.QID))
	fmt.Println("zoom-in on Behavior annotations:")
	for _, zr := range zoom.ZoomAnnotations {
		for _, a := range zr.Annotations {
			fmt.Printf("  A%d [%s]: %s\n", a.ID, a.Author, a.Text)
		}
	}
}
