package difftest

import (
	"fmt"
	"math/rand"
	"sort"
)

// Stream is a seeded stream of mutation statements over one table, birds:
// inserts, updates, deletes, annotations, retractions and classifier
// training. It keeps its own bookkeeping of live rows and annotation ids,
// so every statement it generates is well-formed, and any number of
// databases given the same stream end in the same state.
type Stream struct {
	rng    *rand.Rand
	nextID int   // next value for the id column
	live   []int // id-column values currently in the table
	anns   int   // annotations added so far (ids are sequential from 1)
	// annRow maps live annotation ids to the id-column value they target:
	// deleting a row orphans (and removes) its annotations, so the stream
	// must stop referencing them.
	annRow map[int]int
}

// NewStream returns the stream of seed.
func NewStream(seed int64) *Stream {
	return &Stream{rng: rand.New(rand.NewSource(seed)), nextID: 1, annRow: map[int]int{}}
}

// Scaffold returns the fixed schema-setup statements: birds indexed on id,
// a classifier C and a snippet instance S linked to it.
func (s *Stream) Scaffold() []string {
	return []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"CREATE INDEX ON birds (id)",
		"CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')",
		"CREATE SUMMARY INSTANCE S TYPE Snippet",
		"LINK SUMMARY C TO birds",
		"LINK SUMMARY S TO birds",
	}
}

// Live returns the id-column values currently in the table, in insertion
// order. The caller must not modify it.
func (s *Stream) Live() []int { return s.live }

// NextID returns the id-column value the next insert takes.
func (s *Stream) NextID() int { return s.nextID }

// Insert returns the statement inserting the next row.
func (s *Stream) Insert() string {
	id := s.nextID
	s.nextID++
	s.live = append(s.live, id)
	return fmt.Sprintf("INSERT INTO birds VALUES (%d, 'bird-%d')", id, id)
}

// Next returns the next statement. A statement either fully succeeds or
// fails before mutating anything.
func (s *Stream) Next() string {
	for {
		switch s.rng.Intn(10) {
		case 0, 1, 2:
			return s.Insert()
		case 3: // update
			if len(s.live) == 0 {
				continue
			}
			id := s.live[s.rng.Intn(len(s.live))]
			return fmt.Sprintf("UPDATE birds SET name = 'seen-%d' WHERE id = %d", s.rng.Intn(100), id)
		case 4: // delete (orphans the row's annotations)
			if len(s.live) < 3 {
				continue
			}
			i := s.rng.Intn(len(s.live))
			id := s.live[i]
			s.live = append(s.live[:i], s.live[i+1:]...)
			for ann, row := range s.annRow {
				if row == id {
					delete(s.annRow, ann)
				}
			}
			return fmt.Sprintf("DELETE FROM birds WHERE id = %d", id)
		case 5, 6, 7: // annotate a live row
			if len(s.live) == 0 {
				continue
			}
			id := s.live[s.rng.Intn(len(s.live))]
			s.anns++
			s.annRow[s.anns] = id
			return fmt.Sprintf("ADD ANNOTATION 'observed behavior %d feeding' ON birds WHERE id = %d", s.anns, id)
		case 8: // train the classifier
			return fmt.Sprintf("TRAIN SUMMARY C ('feeding foraging sample %d', 'Behavior')", s.rng.Intn(50))
		default: // drop an annotation that still exists
			if len(s.annRow) == 0 {
				continue
			}
			ids := make([]int, 0, len(s.annRow))
			for ann := range s.annRow {
				ids = append(ids, ann)
			}
			sort.Ints(ids)
			id := ids[s.rng.Intn(len(ids))]
			delete(s.annRow, id)
			return fmt.Sprintf("DROP ANNOTATION %d", id)
		}
	}
}
