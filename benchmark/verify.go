package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"insightnotes/internal/engine"
)

// verifySample is how many annotated rows and how many inserted rows the
// durability check reads back in full.
const verifySample = 64

// verifyDurable checks the re-opened database against the ground truth:
// every acknowledged ADD ANNOTATION, INSERT and BULK INSERT is counted,
// and a sample of them is read back — rows by value, annotations by
// zooming into every classifier label and matching the texts.
func verifyDurable(db *engine.DB, t *truth, bad *problems, seed int64) {
	ctx := context.Background()
	acked, tried := 0, 0
	var annotated []int
	for i, a := range t.anns {
		acked += a.acked
		tried += a.attempted
		if a.acked > len(t.annTexts[i]) {
			annotated = append(annotated, i+1)
		}
	}
	for _, n := range t.sightAnns {
		acked += n
		tried += n
	}
	if n := db.Annotations().Count(); n < acked || n > tried {
		bad.addf("after re-open: %d annotations, want %d..%d", n, acked, tried)
	}
	tbl, err := db.Catalog().Table("birds")
	if err != nil {
		bad.addf("after re-open: %v", err)
		return
	}
	lo, hi := len(t.birds)+len(t.inserted), len(t.birds)+t.rowsTried
	if n := tbl.Len(); n < lo || n > hi {
		bad.addf("after re-open: %d rows in birds, want %d..%d", n, lo, hi)
	}

	r := rand.New(rand.NewSource(seed))
	pick := func(ids []int) []int {
		sort.Ints(ids)
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if len(ids) > verifySample {
			ids = ids[:verifySample]
		}
		return ids
	}
	if len(annotated) == 0 {
		// A read-only workload: sample the corpus itself.
		for i := 0; i < verifySample && i < len(t.birds); i++ {
			annotated = append(annotated, 1+r.Intn(len(t.birds)))
		}
	}
	for _, id := range pick(annotated) {
		res, err := db.Query(ctx, fmt.Sprint(pointSelect, id))
		if err != nil || len(res.Rows) != 1 {
			bad.addf("after re-open: row %d not read back as one row: %v", id, err)
			continue
		}
		a := t.anns[id-1]
		var labels [4]int
		sum := 0
		if env := res.Rows[0].Env; env != nil && env.Object(classifier) != nil {
			labels, sum = labelCounts(env.Object(classifier).Render())
		}
		if sum < a.acked || sum > a.attempted {
			bad.addf("after re-open: row %d carries %d annotations, want %d..%d", id, sum, a.acked, a.attempted)
		}
		for l, want := range labels {
			if want == 0 {
				continue
			}
			rows, _, err := db.ZoomIn(ctx, engine.ZoomInRequest{QID: res.QID, Instance: classifier, Index: l + 1})
			got := 0
			for _, zr := range rows {
				for _, ann := range zr.Annotations {
					got++
					if _, ok := a.texts[textHash(ann.Text)]; !ok {
						bad.addf("after re-open: row %d: annotation %d was never attached", id, ann.ID)
					}
				}
			}
			if err != nil || got != want {
				bad.addf("after re-open: row %d label %d: %d annotations, want %d, %v", id, l+1, got, want, err)
			}
		}
	}
	inserted := make([]int, 0, len(t.inserted))
	for id := range t.inserted {
		inserted = append(inserted, id)
	}
	for _, id := range pick(inserted) {
		res, err := db.Query(ctx, fmt.Sprint(pointSelect, id))
		if err != nil || len(res.Rows) != 1 {
			bad.addf("after re-open: inserted row %d not read back as one row: %v", id, err)
			continue
		}
		tu, want := res.Rows[0].Tuple, t.inserted[id]
		if tu[1].Str() != want.name || tu[2].Str() != want.region {
			bad.addf("after re-open: inserted row %d is (%s, %s), want (%s, %s)", id, tu[1].Str(), tu[2].Str(), want.name, want.region)
		}
	}
}
