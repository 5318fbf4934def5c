// Biocuration: the paper's second domain (§2.3) — a biological gene
// database whose annotations classify into FunctionPrediction / Provenance
// / Comment rather than ornithological classes. The example demonstrates
// the extensibility hierarchy (domain-specific instances), multi-tuple
// annotations with the summarize-once optimization, runtime LINK/UNLINK,
// and rebuilding summaries after classifier retraining.
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

	must(`CREATE TABLE genes (gid INT, symbol TEXT, organism TEXT)`)
	must(`INSERT INTO genes VALUES
		(1, 'BRCA2', 'H. sapiens'),
		(2, 'TP53',  'H. sapiens'),
		(3, 'rad51', 'S. cerevisiae')`)

	// A domain-specific classifier instance — the §2.3 gene labels.
	must(`CREATE SUMMARY INSTANCE GeneClass TYPE Classifier
		LABELS ('FunctionPrediction', 'Provenance', 'Comment')`)
	must(`TRAIN SUMMARY GeneClass
		('predicted to regulate dna repair pathway binding', 'FunctionPrediction'),
		('homolog domain suggests kinase function expression', 'FunctionPrediction'),
		('imported from genbank release pipeline source', 'Provenance'),
		('record derived from the 2014 curation dataset', 'Provenance'),
		('please double check this entry for typos', 'Comment'),
		('value looks wrong, needs verification', 'Comment')`)
	must(`LINK SUMMARY GeneClass TO genes`)

	// A provenance note attached to ALL tuples at once: with both invariant
	// properties true the engine classifies it exactly once (summarize-once).
	res := must(`ADD ANNOTATION 'imported from genbank release 42 by the curation pipeline'
		AUTHOR 'curation-bot' ON genes`)
	fmt.Printf("bulk provenance note: %s\n", res.Message)

	// Per-gene annotations.
	must(`ADD ANNOTATION 'predicted to regulate homologous dna repair'
		ON genes WHERE symbol = 'BRCA2'`)
	must(`ADD ANNOTATION 'expression value looks wrong, please verify'
		ON genes (symbol) WHERE symbol = 'BRCA2'`)

	fmt.Println("\n=== gene summaries ===")
	q, err := db.Query(ctx, `SELECT gid, symbol, organism FROM genes ORDER BY gid`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range q.Rows {
		fmt.Printf("%v\n", row.Tuple)
		if row.Env != nil {
			fmt.Printf("    %s\n", row.Env.Render())
		}
	}

	// Zoom in on BRCA2's comments (GeneClass label index 3).
	fmt.Println("\n=== zoom-in: comments on BRCA2 ===")
	zoom := must(fmt.Sprintf(
		`ZOOMIN REFERENCE QID %d WHERE symbol = 'BRCA2' ON GeneClass INDEX 3`, q.QID))
	for _, zr := range zoom.ZoomAnnotations {
		for _, a := range zr.Annotations {
			fmt.Printf("  A%d: %s\n", a.ID, a.Text)
		}
	}

	// Extensibility at runtime: link a second, cluster-type instance — its
	// objects appear for existing annotations (backfill) — then unlink it.
	fmt.Println("\n=== runtime LINK/UNLINK ===")
	must(`CREATE SUMMARY INSTANCE GeneCluster TYPE Cluster WITH (threshold = 0.3)`)
	must(`LINK SUMMARY GeneCluster TO genes`)
	q2, _ := db.Query(ctx, `SELECT gid, symbol FROM genes WHERE gid = 1`)
	fmt.Printf("after LINK:\n    %s\n", q2.Rows[0].Env.Render())
	must(`UNLINK SUMMARY GeneCluster FROM genes`)
	q3, _ := db.Query(ctx, `SELECT gid, symbol FROM genes WHERE gid = 1`)
	fmt.Printf("after UNLINK:\n    %s\n", q3.Rows[0].Env.Render())

	// Retrain the classifier, then rebuild the summaries so existing
	// objects reflect the refined model.
	fmt.Println("\n=== retrain + rebuild ===")
	must(`TRAIN SUMMARY GeneClass
		('curation pipeline import batch job', 'Provenance'),
		('double check verify wrong suspicious', 'Comment')`)
	if _, err := db.RebuildSummaries("genes"); err != nil {
		log.Fatal(err)
	}
	q4, _ := db.Query(ctx, `SELECT gid, symbol FROM genes WHERE gid = 1`)
	fmt.Printf("rebuilt:\n    %s\n", q4.Rows[0].Env.Render())
}
