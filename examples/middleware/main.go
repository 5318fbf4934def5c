// Middleware: InsightNotes as standalone annotation-management middleware —
// the deployment style of the paper's prototype, which fronted a modified
// PostgreSQL. The example starts an engine server in-process, connects two
// clients over TCP, and drives the full annotate → query → zoom-in cycle
// through the wire protocol.
package main

import (
	"context"
	"fmt"
	"log"

	"insightnotes"
	"insightnotes/internal/types"
)

func main() {
	ctx := context.Background()
	db, err := insightnotes.Open(insightnotes.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close() // removes the zoom-in spill directory Open created
	srv, addr, err := insightnotes.Serve(db, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("engine serving on %s\n\n", addr)

	// Client 1: an administrator sets up the schema and summary instances.
	admin, err := insightnotes.DialServer(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	for _, stmt := range []string{
		`CREATE TABLE birds (id INT, name TEXT)`,
		`INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')`,
		`CREATE SUMMARY INSTANCE ClassBird TYPE Classifier LABELS ('Behavior', 'Disease', 'Other')`,
		`TRAIN SUMMARY ClassBird
			('feeding foraging stonewort flock', 'Behavior'),
			('influenza infection lesions sick', 'Disease'),
			('photo camera record duplicate', 'Other')`,
		`LINK SUMMARY ClassBird TO birds`,
	} {
		resp, err := admin.Do(ctx, stmt)
		if err != nil {
			log.Fatal(err)
		}
		if !resp.OK {
			log.Fatalf("%s: %s", stmt, resp.Error)
		}
	}
	fmt.Println("admin: schema and ClassBird instance installed")

	// Client 2: a bird watcher annotates and queries.
	watcher, err := insightnotes.DialServer(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer watcher.Close()
	for _, text := range []string{
		"observed feeding on stonewort at dawn",
		"large flock foraging near the shore",
		"lesions on the bill, influenza suspected",
	} {
		resp, err := watcher.Do(ctx, fmt.Sprintf(
			`ADD ANNOTATION '%s' AUTHOR 'watcher7' ON birds WHERE id = 1`, text))
		if err != nil || !resp.OK {
			log.Fatalf("annotate: %v %v", err, resp)
		}
	}
	fmt.Println("watcher: 3 annotations added over the wire")

	// Queries go through a prepared statement: the template is parsed and
	// its plan cached server-side once; each Exec binds $1 to a value.
	byID, err := watcher.Prepare(ctx, `SELECT id, name FROM birds WHERE id = $1`)
	if err != nil {
		log.Fatalf("prepare: %v", err)
	}
	resp, err := byID.Exec(ctx, types.NewInt(1))
	if err != nil || !resp.OK {
		log.Fatalf("query: %v %+v", err, resp)
	}
	row := resp.Rows[0]
	fmt.Printf("\nquery result: %v %v\n", row.Values[0], row.Values[1])
	fmt.Printf("  summaries: %s\n", row.Summaries["ClassBird"])

	// Zoom in on the Disease label (index 2).
	zoom, err := watcher.Do(ctx, fmt.Sprintf(
		`ZOOMIN REFERENCE QID %d ON ClassBird INDEX 2`, resp.QID))
	if err != nil || !zoom.OK {
		log.Fatalf("zoom: %v %+v", err, zoom)
	}
	fmt.Println("\nzoom-in on Disease annotations:")
	for _, r := range zoom.Rows {
		fmt.Printf("  A%v [%v]: %v\n", r.Values[0], r.Values[1], r.Values[3])
	}
}
