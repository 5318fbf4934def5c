package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"

	"insightnotes/internal/engine"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
	"insightnotes/internal/workload"
)

// class is one statement shape. Latency is reported per class as well as
// over the whole workload, and the traced pass attributes time per class.
type class uint8

const (
	selAdhoc    class = iota // point SELECT as text with a fresh literal
	selPrepared              // the same SELECT through Stmt.Exec
	selRange                 // 20-row indexed range SELECT
	joinQ                    // birds ⋈ sightings with a selective predicate
	scanQ                    // filtered scan, narrowing projection, LIMIT 50
	groupQ                   // GROUP BY region
	zoomQ                    // ZOOMIN on one of the client's recent QIDs
	annotateW                // durable ADD ANNOTATION
	insertW                  // single-row INSERT
	bulkW                    // 100-row BULK INSERT
	numClasses
)

var classNames = [numClasses]string{
	"select_adhoc", "select_prepared", "select_range", "join", "scan_project",
	"group_by", "zoomin", "annotate", "insert", "bulk_insert",
}

func (c class) String() string { return classNames[c] }
func (c class) write() bool    { return c >= annotateW }

const (
	classifier  = "ClassBird1"
	pointSelect = "SELECT id, name, region FROM birds WHERE id = "
	rangeRows   = 20
	bulkRows    = 100
	scanLimit   = 50
	// observerValues is the domain of sightings.observers: one value
	// selects 1/40 of the sightings, the join's selective predicate.
	observerValues = 40
	// qidRing is how many of its own recent QIDs a client zooms into.
	qidRing = 256
)

type share struct {
	class  class
	weight int // percent
}

// spec sizes one workload. The sizes are constants of the benchmark: a
// later change is compared on the same corpus, mix and pool.
type spec struct {
	name        string
	why         string
	birds       int
	annsPerBird int
	docShare    float64
	sightings   int     // 0: no sightings table
	poolFrames  int     // buffer pool, 8 KiB frames
	cacheBudget int64   // zoom-in cache bytes (0: the engine's 4 MiB default)
	zipf        float64 // key skew exponent (0: uniform keys)
	mix         []share
	rotate      bool // take classes round-robin, not at random
	warmOps     int  // untimed warm-up statements, all clients together
	traceOps    int  // statements sampled by the traced pass
	// passOps is the length of the measured pass in statements, all
	// clients together, for the default 10 s: about 8.5 s of work on the
	// reference host at the commit that added the benchmark. A fixed count
	// makes the pass the same work on every commit (the same checkpoints
	// fall inside it); -seconds scales it and caps the pass in time.
	passOps int
}

// specs are the four workloads; later issues cite them by name.
var specs = []spec{
	{
		name:  "point_read",
		why:   "resident indexed point SELECTs, half ad-hoc half prepared: per-statement fixed cost is nearly all the work",
		birds: 4000, annsPerBird: 8, docShare: 0.05, poolFrames: 4096,
		mix:     []share{{selAdhoc, 50}, {selPrepared, 50}},
		warmOps: 3600, traceOps: 2000, passOps: 14000,
	},
	{
		name:  "join_scan",
		why:   "hash join, filtered scan with projection and GROUP BY over heavily annotated rows: operators and summary algebra dominate",
		birds: 500, annsPerBird: 16, docShare: 0.05, sightings: 1000, poolFrames: 4096,
		mix:     []share{{joinQ, 34}, {scanQ, 33}, {groupQ, 33}},
		rotate:  true,
		warmOps: 150, traceOps: 120, passOps: 480,
	},
	{
		name:  "annotate_ingest",
		why:   "durable ADD ANNOTATION, INSERT and BULK INSERT with no reads: WAL, group commit and summary maintenance do the work",
		birds: 1000, annsPerBird: 8, docShare: 0.05, poolFrames: 4096, zipf: 1.1,
		mix:     []share{{annotateW, 85}, {insertW, 10}, {bulkW, 5}},
		warmOps: 2000, traceOps: 1500, passOps: 11500,
	},
	{
		name:  "curation_mix",
		why:   "reads, zoom-ins and durable annotations at once on a heap far larger than the pool: shared storage, cache, WAL and lock code",
		birds: 20000, annsPerBird: 1, docShare: 0.05, poolFrames: 64, cacheBudget: 1 << 20, zipf: 1.1,
		mix:     []share{{selAdhoc, 30}, {selPrepared, 30}, {selRange, 10}, {zoomQ, 10}, {annotateW, 20}},
		warmOps: 2000, traceOps: 2000, passOps: 14000,
	},
}

// quick shrinks a workload so the whole suite runs in seconds (-quick).
func (sp spec) quick() spec {
	sp.birds /= 8
	sp.sightings /= 8
	sp.warmOps = sp.warmOps/20 + 10
	sp.traceOps = 24
	return sp
}

// bird is one row of the corpus as the generator made it.
type bird struct {
	name, region string
	cents        int // wingspan in hundredths
}

type sighting struct {
	sid, bird, observers int
}

// annTruth is what the generator attached to one row: acked annotations
// are certainly stored, attempted ones may be (a statement in flight).
type annTruth struct {
	acked, attempted int
	texts            map[uint64]struct{}
}

// truth is the generator's ground truth of one set-up, shared by its
// clients: the corpus as built plus what the statement streams added.
type truth struct {
	*corpus

	mu        sync.Mutex
	anns      []annTruth   // index = bird id-1
	inserted  map[int]bird // acknowledged INSERT / BULK INSERT rows by id
	rowsTried int          // rows of every INSERT / BULK INSERT sent
}

func textHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// attempt records an annotation about to be sent; ack confirms it.
func (t *truth) attempt(id int, hash uint64) {
	t.mu.Lock()
	a := &t.anns[id-1]
	a.attempted++
	a.texts[hash] = struct{}{}
	t.mu.Unlock()
}

func (t *truth) ack(id int) {
	t.mu.Lock()
	t.anns[id-1].acked++
	t.mu.Unlock()
}

// acked returns the acknowledged annotation counts of ids first..first+n-1,
// the lower bound a SELECT sent now must observe.
func (t *truth) ackedCounts(first, n int) []int {
	out := make([]int, n)
	t.mu.Lock()
	for i := range out {
		out[i] = t.anns[first-1+i].acked
	}
	t.mu.Unlock()
	return out
}

func (t *truth) attemptedCount(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.anns[id-1].attempted
}

func (t *truth) hasText(id int, hash uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.anns[id-1].texts[hash]
	return ok
}

// corpus is the pre-rendered load of one workload: statements and
// annotation batches ready to apply, so set-up times the system and not
// the generator. It is immutable once built; every set-up takes a fresh
// truth from it.
type corpus struct {
	ddl      []string
	inserts  []string
	annotate [][]engine.AnnotationRequest

	birds     []bird // index = id-1
	sightings []sighting
	byObs     [observerValues][]int // observers value → indexes into sightings
	annTexts  [][]uint64            // index = bird id-1: hashes of the attached texts
	sightAnns map[int]int           // sid → annotations attached
	trainSeed int64
}

func (c *corpus) newTruth() *truth {
	t := &truth{corpus: c, anns: make([]annTruth, len(c.birds)), inserted: map[int]bird{}}
	for i, hs := range c.annTexts {
		a := &t.anns[i]
		a.acked, a.attempted = len(hs), len(hs)
		a.texts = make(map[uint64]struct{}, len(hs))
		for _, h := range hs {
			a.texts[h] = struct{}{}
		}
	}
	return t
}

func idEquals(col string, id int) sql.Expr {
	return &sql.BinaryExpr{Op: "=", L: &sql.ColRef{Name: col}, R: &sql.Literal{Val: types.NewInt(int64(id))}}
}

func birdValues(id int, b bird) string {
	return fmt.Sprintf("(%d, '%s', 'sp. %d', '%s', %d.%02d)", id, b.name, id, b.region, b.cents/100, b.cents%100)
}

var regionNames = [...]string{"northeast", "southeast", "midwest", "northwest", "southwest", "great lakes", "gulf coast", "mountain west"}

// newBird makes row id. Region and wingspan are spread evenly by id and do
// not depend on the seed: every seed gives groups of the same size and
// predicates of the same selectivity, so runs on different seeds do the
// same amount of work and differ only in texts and key order.
func newBird(id int) bird {
	name, _ := workload.Species(id)
	return bird{name: name, region: regionNames[id%len(regionNames)], cents: 30 + id*37%250}
}

// annotationBody draws one annotation: class-skewed text, and a document
// for docShare of them.
func annotationBody(g *workload.Generator, docShare float64) (text, title, doc string) {
	c := g.PickClass(workload.BirdClasses)
	text = g.ClassText(c)
	if g.Float64() < docShare {
		title, doc = g.Document(c, 6)
	}
	return
}

const (
	insertBatch   = 500
	annotateBatch = 256
)

func buildCorpus(sp *spec, seed int64) *corpus {
	g := workload.New(seed)
	c := &corpus{
		birds:     make([]bird, sp.birds),
		annTexts:  make([][]uint64, sp.birds),
		sightAnns: map[int]int{},
		trainSeed: seed + 7919,
	}
	c.ddl = append(c.ddl, "CREATE TABLE birds (id INT, name TEXT, sci_name TEXT, region TEXT, wingspan FLOAT)")
	bulk := func(table string, n int, row func(i int) string) {
		for lo := 0; lo < n; lo += insertBatch {
			var b strings.Builder
			b.WriteString("BULK INSERT INTO " + table + " VALUES ")
			for i := lo; i < lo+insertBatch && i < n; i++ {
				if i > lo {
					b.WriteString(", ")
				}
				b.WriteString(row(i))
			}
			c.inserts = append(c.inserts, b.String())
		}
	}
	bulk("birds", sp.birds, func(i int) string {
		c.birds[i] = newBird(i + 1)
		return birdValues(i+1, c.birds[i])
	})
	if sp.sightings > 0 {
		c.ddl = append(c.ddl, "CREATE TABLE sightings (sid INT, bird_id INT, observers INT, site TEXT)")
		c.sightings = make([]sighting, sp.sightings)
		bulk("sightings", sp.sightings, func(i int) string {
			// Every observers value selects the same number of sightings.
			s := sighting{sid: i + 1, bird: 1 + g.Intn(sp.birds), observers: i % observerValues}
			c.sightings[i] = s
			c.byObs[s.observers] = append(c.byObs[s.observers], i)
			return fmt.Sprintf("(%d, %d, %d, '%s')", s.sid, s.bird, s.observers, regionNames[i%len(regionNames)])
		})
	}
	var batch []engine.AnnotationRequest
	add := func(req engine.AnnotationRequest) {
		batch = append(batch, req)
		if len(batch) == annotateBatch {
			c.annotate = append(c.annotate, batch)
			batch = nil
		}
	}
	for i := range c.birds {
		for k := 0; k < sp.annsPerBird; k++ {
			text, title, doc := annotationBody(g, sp.docShare)
			c.annTexts[i] = append(c.annTexts[i], textHash(text))
			add(engine.AnnotationRequest{Text: text, Title: title, Document: doc,
				Author: g.AuthorName(), Table: "birds", Where: idEquals("id", i+1)})
		}
	}
	// A quarter of the sightings carry one annotation, so the join merges
	// two non-empty envelopes for those rows.
	for i := 0; i < len(c.sightings); i += 4 {
		text, _, _ := annotationBody(g, 0)
		c.sightAnns[c.sightings[i].sid] = 1
		add(engine.AnnotationRequest{Text: text, Author: g.AuthorName(),
			Table: "sightings", Where: idEquals("sid", c.sightings[i].sid)})
	}
	if len(batch) > 0 {
		c.annotate = append(c.annotate, batch)
	}
	return c
}

// op is one pre-generated statement. ZOOMIN is the exception: its QID is
// only known once the client has results, so the op carries a recency
// rank and a label and the client renders the text when it sends.
type op struct {
	class class
	stmt  string
	key   int    // addressed bird id, first id of a range or of inserted rows
	n     int    // rows addressed or inserted
	x     int    // join: observers; scan: wingspan cents; group: id lower bound; zoom: recency rank
	label int    // zoom: 1-based label index
	hash  uint64 // annotate: hash of the text
	text  string // annotate: text, title and document for the summarize span
	title string
	doc   string
	rows  []bird // insert, bulk insert: the rows
}

// opGen turns a seed into one client's statement stream.
type opGen struct {
	sp     *spec
	g      *workload.Generator
	r      *rand.Rand
	zipf   *rand.Zipf
	rank   *rand.Zipf
	nextID int
	i      int
}

func newOpGen(sp *spec, seed int64, client int) *opGen {
	r := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1))
	og := &opGen{
		sp: sp, r: r,
		g:      workload.New(seed*1000003 + int64(client)*104729 + 2),
		rank:   rand.NewZipf(r, 1.1, 1, qidRing-1),
		nextID: 1_000_000 * (client + 1),
	}
	if sp.zipf > 1 {
		og.zipf = rand.NewZipf(r, sp.zipf, 8, uint64(sp.birds-1))
	}
	return og
}

func (og *opGen) key(span int) int {
	if og.zipf != nil {
		k := 1 + int(og.zipf.Uint64())
		if k > og.sp.birds-span+1 {
			k = og.sp.birds - span + 1
		}
		return k
	}
	return 1 + og.r.Intn(og.sp.birds-span+1)
}

func (og *opGen) pick() class {
	og.i++
	if og.sp.rotate {
		return og.sp.mix[og.i%len(og.sp.mix)].class
	}
	total := 0
	for _, s := range og.sp.mix {
		total += s.weight
	}
	n := og.r.Intn(total)
	for _, s := range og.sp.mix {
		if n -= s.weight; n < 0 {
			return s.class
		}
	}
	panic("unreachable")
}

func (og *opGen) next() op { return og.make(og.pick()) }

func (og *opGen) make(c class) op {
	o := op{class: c, n: 1}
	switch c {
	case selAdhoc:
		o.key = og.key(1)
		o.stmt = fmt.Sprint(pointSelect, o.key)
	case selPrepared:
		o.key = og.key(1)
	case selRange:
		o.key, o.n = og.key(rangeRows), rangeRows
		o.stmt = fmt.Sprintf("SELECT id, name FROM birds WHERE id BETWEEN %d AND %d", o.key, o.key+o.n-1)
	case joinQ:
		o.x = og.r.Intn(observerValues)
		o.stmt = fmt.Sprintf("SELECT b.id, b.name, s.sid FROM birds b, sightings s WHERE b.id = s.bird_id AND s.observers = %d", o.x)
	case scanQ:
		o.x = 230 + og.r.Intn(40)
		o.stmt = fmt.Sprintf("SELECT id, region FROM birds WHERE wingspan >= %d.%02d LIMIT %d", o.x/100, o.x%100, scanLimit)
	case groupQ:
		o.x = og.r.Intn(100)
		o.stmt = fmt.Sprintf("SELECT region, COUNT(*) FROM birds WHERE id > %d GROUP BY region", o.x)
	case zoomQ:
		o.x = int(og.rank.Uint64())
		o.label = 1 + og.r.Intn(len(workload.BirdClasses))
		o.key = og.key(1) // the point SELECT sent instead while no QID is known
	case annotateW:
		o.key = og.key(1)
		o.text, o.title, o.doc = annotationBody(og.g, og.sp.docShare)
		o.hash = textHash(o.text)
		var b strings.Builder
		fmt.Fprintf(&b, "ADD ANNOTATION '%s'", o.text)
		if o.doc != "" {
			fmt.Fprintf(&b, " TITLE '%s' DOCUMENT '%s'", o.title, o.doc)
		}
		fmt.Fprintf(&b, " AUTHOR '%s' ON birds WHERE id = %d", og.g.AuthorName(), o.key)
		o.stmt = b.String()
	case insertW, bulkW:
		if c == bulkW {
			o.n = bulkRows
		}
		o.key = og.nextID
		og.nextID += o.n
		o.rows = make([]bird, o.n)
		vals := make([]string, o.n)
		for i := range o.rows {
			o.rows[i] = newBird(o.key + i)
			vals[i] = birdValues(o.key+i, o.rows[i])
		}
		verb := "INSERT"
		if c == bulkW {
			verb = "BULK INSERT"
		}
		o.stmt = verb + " INTO birds VALUES " + strings.Join(vals, ", ")
	}
	return o
}

func zoomStmt(qid, label int) string {
	return fmt.Sprintf("ZOOMIN REFERENCE QID %d ON %s INDEX %d", qid, classifier, label)
}
