// Ornithology: the paper's demonstration scenario — an AKN-style annotated
// bird database where watcher observations pile up two orders of magnitude
// faster than base records. The example builds a small flock of birds with
// class-skewed annotations and attached field reports, then walks the
// demo's features: summary visualization, a join query with pipelined
// summary propagation, the under-the-hood per-operator trace (Figure 5),
// and cluster/snippet zoom-ins.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"insightnotes"
)

var birds = []struct {
	id       int
	name     string
	sciName  string
	wingspan float64
}{
	{1, "Swan Goose", "Anser cygnoides", 1.8},
	{2, "Mute Swan", "Cygnus olor", 2.2},
	{3, "Whooper Swan", "Cygnus cygnus", 2.3},
	{4, "Canada Goose", "Branta canadensis", 1.7},
}

// observations per class, cycled over the birds.
var observations = map[string][]string{
	"Behavior": {
		"found eating stonewort near the shore at dawn",
		"large flock foraging in the shallow lake",
		"territorial display toward intruding geese observed",
		"feeding on stonewort beds with juveniles nearby",
	},
	"Disease": {
		"specimen lethargic, signs of avian influenza infection",
		"lesions near the bill suggest avian pox virus",
	},
	"Anatomy": {
		"wingspan measured at nearly two meters",
		"plumage white with black wing tips, long neck",
	},
	"Other": {
		"photo uploaded from the trail camera archive",
		"duplicate of an earlier checklist record",
	},
}

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

	// Base data: birds and a sightings fact table.
	must(`CREATE TABLE birds (id INT, name TEXT, sci_name TEXT, wingspan FLOAT)`)
	for _, b := range birds {
		must(fmt.Sprintf(`INSERT INTO birds VALUES (%d, '%s', '%s', %.1f)`,
			b.id, b.name, b.sciName, b.wingspan))
	}
	must(`CREATE TABLE sightings (sid INT, bird_id INT, region TEXT, cnt INT)`)
	regions := []string{"great lakes", "northeast", "gulf coast"}
	for i := 0; i < 12; i++ {
		must(fmt.Sprintf(`INSERT INTO sightings VALUES (%d, %d, '%s', %d)`,
			i+1, i%4+1, regions[i%3], (i*7)%40+1))
	}

	// The three demo summary instances.
	must(`CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier
		LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')`)
	must(`TRAIN SUMMARY ClassBird1
		('found eating stonewort shore flock foraging feeding', 'Behavior'),
		('territorial display observed at dawn', 'Behavior'),
		('influenza infection lesions virus lethargic sick', 'Disease'),
		('wingspan plumage neck bill measured meters', 'Anatomy'),
		('photo camera duplicate record checklist archive', 'Other')`)
	must(`CREATE SUMMARY INSTANCE SimCluster TYPE Cluster WITH (threshold = 0.25)`)
	must(`CREATE SUMMARY INSTANCE TextSummary1 TYPE Snippet WITH (sentences = 2)`)
	for _, inst := range []string{"ClassBird1", "SimCluster", "TextSummary1"} {
		must(fmt.Sprintf(`LINK SUMMARY %s TO birds`, inst))
	}

	// Stream in the watcher annotations (several rounds so counts build up
	// the way Figure 1 shows).
	for round := 0; round < 3; round++ {
		for class, texts := range observations {
			for i, text := range texts {
				bird := (i+round)%4 + 1
				must(fmt.Sprintf(`ADD ANNOTATION '%s (%s obs %d)' AUTHOR 'watcher%02d'
					ON birds WHERE id = %d`, text, strings.ToLower(class), round, i, bird))
			}
		}
	}
	// One attached field report (a document the Snippet instance condenses).
	must(`ADD ANNOTATION 'full field report attached'
		TITLE 'Field report: Swan Goose spring survey'
		DOCUMENT 'Swan geese gathered on the stonewort beds every morning. Counts peaked at forty-one birds near the north shore. Two juveniles showed feeding behavior identical to the adults. Weather stayed mild for the whole survey week. One adult carried a leg band from the 2013 season.'
		ON birds WHERE id = 1`)

	// --- Feature 1: querying and visualizing summaries ---
	fmt.Println("=== summaries on the Swan Goose tuple ===")
	res, err := db.Query(ctx, `SELECT id, name FROM birds WHERE id = 1`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("%v\n%s\n", row.Tuple, indent(row.Env.Render()))
	}

	// --- Feature 2: summary propagation through a join + aggregation ---
	fmt.Println("\n=== summaries propagate through a join ===")
	joinRes, err := db.Query(ctx, `SELECT b.name, s.region, s.cnt FROM birds b, sightings s
		WHERE b.id = s.bird_id AND s.cnt > 20 ORDER BY s.cnt DESC`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range joinRes.Rows {
		fmt.Printf("%v\n", row.Tuple)
		if row.Env != nil {
			fmt.Println(indent(row.Env.Render()))
		}
	}

	// --- Feature 3: under-the-hood execution (Figure 5) ---
	fmt.Println("\n=== under-the-hood: summaries at each operator ===")
	traced, err := db.Query(ctx, `SELECT b.name, s.region FROM birds b, sightings s
		WHERE b.id = s.bird_id AND b.id = 1 LIMIT 2`, insightnotes.WithTrace())
	if err != nil {
		log.Fatal(err)
	}
	lastStage := ""
	for _, e := range traced.Trace {
		if e.Stage != lastStage {
			fmt.Printf("[%s]\n", e.Stage)
			lastStage = e.Stage
		}
		fmt.Printf("  %v", e.Tuple)
		if e.Summary != "" {
			first := strings.SplitN(e.Summary, "\n", 2)[0]
			fmt.Printf("   « %s …", first)
		}
		fmt.Println()
	}

	// --- Feature 4: zoom-in ---
	fmt.Println("\n=== zoom-in: disease annotations on the Swan Goose ===")
	zoom := must(fmt.Sprintf(
		`ZOOMIN REFERENCE QID %d WHERE id = 1 ON ClassBird1 INDEX 2`, res.QID))
	for _, zr := range zoom.ZoomAnnotations {
		for _, a := range zr.Annotations {
			fmt.Printf("  A%d [%s] %s\n", a.ID, a.Author, a.Text)
		}
	}
	fmt.Println("\n=== zoom-in: the attached field report (snippet index 1) ===")
	zoomDoc := must(fmt.Sprintf(
		`ZOOMIN REFERENCE QID %d WHERE id = 1 ON TextSummary1 INDEX 1`, res.QID))
	for _, zr := range zoomDoc.ZoomAnnotations {
		for _, a := range zr.Annotations {
			fmt.Printf("  %s\n  %s\n", a.Title, a.Document)
		}
	}
	st := db.Cache().Stats()
	fmt.Printf("\nzoom-in cache: %d hits, %d misses (%s policy)\n",
		st.Hits, st.Misses, db.Cache().PolicyName())
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n")
}
