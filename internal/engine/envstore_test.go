package engine

import (
	"bytes"
	"fmt"
	"testing"

	"insightnotes/internal/summary"
)

// TestEnvelopeRecordIsAFunctionOfTheEnvelope: the heap record of an
// envelope is the same bytes however often, and from whichever copy, it is
// encoded — coverage in id order, objects in instance-name order.
func TestEnvelopeRecordIsAFunctionOfTheEnvelope(t *testing.T) {
	db := birdDB(t)
	for i := 0; i < 12; i++ {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'observed feeding at dawn, flock %d' ON birds WHERE id = 1", i))
	}
	mustExec(t, db, "ADD ANNOTATION 'lesions suggest avian pox virus' ON birds (wingspan) WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'see the article' TITLE 'Wikipedia' DOCUMENT 'The swan goose breeds in Mongolia. It winters in China.' ON birds WHERE id = 1")
	var want []byte
	db.envs.read("birds", 1, func(orig *summary.Envelope) {
		if len(orig.Objects) != 3 || orig.Len() != 14 {
			t.Fatalf("setup: %d objects, %d annotations", len(orig.Objects), orig.Len())
		}
		for _, env := range []*summary.Envelope{orig, orig.View(), orig.Clone()} {
			for i := 0; i < 20; i++ {
				got := encodeEnvelope(nil, "birds", 1, env)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("encoding %d differs:\n%x\nwant\n%x", i, got, want)
				}
			}
		}
	})
}
