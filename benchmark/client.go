package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"insightnotes/internal/server"
	"insightnotes/internal/types"
)

// problems collects output mismatches. Any mismatch makes the run
// incorrect; the first few are printed.
type problems struct {
	mu    sync.Mutex
	count int
	first []string
}

func (p *problems) addf(format string, args ...any) {
	p.mu.Lock()
	p.count++
	if len(p.first) < 8 {
		p.first = append(p.first, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// labelCounts parses a classifier rendering, "Name [(Behavior, 3), (Disease, 1), ...]",
// into its per-label counts.
func labelCounts(render string) (counts [4]int, sum int) {
	i := 0
	for rest := render; i < len(counts); i++ {
		open := strings.IndexByte(rest, '(')
		end := strings.IndexByte(rest, ')')
		if open < 0 || end < open {
			break
		}
		field := rest[open+1 : end]
		if comma := strings.LastIndexByte(field, ','); comma >= 0 {
			n, _ := strconv.Atoi(strings.TrimSpace(field[comma+1:]))
			counts[i] = n
			sum += n
		}
		rest = rest[end+1:]
	}
	return
}

// qidInfo is what a client remembers of one SELECT it may zoom into: the
// rows it returned and their classifier counts summed per label.
type qidInfo struct {
	qid    int
	ids    []int
	labels [4]int
	anns   int // all labels together
}

// client is one closed-loop connection with its statement stream.
type client struct {
	c     *server.Client
	stmt  *server.Stmt // the prepared point SELECT
	gen   *opGen
	truth *truth
	bad   *problems

	ring []qidInfo // recent SELECTs, newest last, at most qidRing
	old  []int     // the first QIDs this client saw, long evicted by the end
}

func dial(addr string, gen *opGen, t *truth, bad *problems) (*client, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	cl := &client{c: c, gen: gen, truth: t, bad: bad}
	cl.stmt, err = c.Prepare(context.Background(), pointSelect+"$1")
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return cl, nil
}

// target resolves a ZOOMIN op against the client's recent results. With
// none yet, the op degrades to the ad-hoc point SELECT of its key.
func (cl *client) target(o *op) (q qidInfo) {
	if o.class != zoomQ {
		return
	}
	if len(cl.ring) == 0 {
		o.class, o.n = selAdhoc, 1
		o.stmt = fmt.Sprint(pointSelect, o.key)
		return
	}
	rank := o.x
	if rank >= len(cl.ring) {
		rank = len(cl.ring) - 1
	}
	q = cl.ring[len(cl.ring)-1-rank]
	o.stmt = zoomStmt(q.qid, o.label)
	return
}

// before does the bookkeeping a statement needs ahead of sending: the
// lower bounds a read must observe, or the attempt a write registers.
func (cl *client) before(o *op) (lo []int) {
	switch o.class {
	case selAdhoc, selPrepared, selRange:
		lo = cl.truth.ackedCounts(o.key, o.n)
	case annotateW:
		cl.truth.attempt(o.key, o.hash)
	case insertW, bulkW:
		cl.truth.mu.Lock()
		cl.truth.rowsTried += o.n
		cl.truth.mu.Unlock()
	}
	return
}

// acked records an acknowledged write.
func (cl *client) acked(o *op) {
	switch o.class {
	case annotateW:
		cl.truth.ack(o.key)
	case insertW, bulkW:
		cl.truth.mu.Lock()
		for i, b := range o.rows {
			cl.truth.inserted[o.key+i] = b
		}
		cl.truth.mu.Unlock()
	}
}

// run sends one statement, times the exchange, and checks the response.
// It reports the class executed and whether the statement succeeded; a
// failed or shed statement is counted, never dropped. An error is a dead
// connection, which ends the run.
func (cl *client) run(ctx context.Context, o op) (class, time.Time, time.Duration, bool, error) {
	q := cl.target(&o)
	lo := cl.before(&o)
	var resp *server.Response
	var err error
	start := time.Now()
	if o.class == selPrepared {
		resp, err = cl.stmt.Exec(ctx, types.NewInt(int64(o.key)))
	} else {
		resp, err = cl.c.Do(ctx, o.stmt)
	}
	d := time.Since(start)
	if err != nil {
		return o.class, start, d, false, err
	}
	if !resp.OK {
		return o.class, start, d, false, nil
	}
	cl.acked(&o)
	cl.check(&o, resp, lo, q)
	return o.class, start, d, true, nil
}

// classSum is the number of annotations the classifier counted on a row.
func classSum(row *server.RowJSON) ([4]int, int) {
	return labelCounts(row.Summaries[classifier])
}

func (cl *client) remember(qi qidInfo) {
	if len(cl.old) < qidRing {
		cl.old = append(cl.old, qi.qid)
	}
	if len(cl.ring) == qidRing {
		copy(cl.ring, cl.ring[1:])
		cl.ring = cl.ring[:qidRing-1]
	}
	cl.ring = append(cl.ring, qi)
}

// check compares one response with the generator's ground truth: keys,
// row count, and on every row the classifier's label counts against the
// annotations the generator attached.
func (cl *client) check(o *op, resp *server.Response, lo []int, q qidInfo) {
	t := cl.truth
	bad := func(format string, args ...any) {
		cl.bad.addf("%s %q: "+format, append([]any{o.class, o.stmt}, args...)...)
	}
	switch o.class {
	case selAdhoc, selPrepared, selRange:
		if len(resp.Rows) != o.n {
			bad("%d rows, want %d", len(resp.Rows), o.n)
			return
		}
		qi := qidInfo{qid: resp.QID}
		seen := make(map[int]bool, o.n)
		for i := range resp.Rows {
			row := &resp.Rows[i]
			id := int(row.Values[0].Int())
			if id < o.key || id >= o.key+o.n || seen[id] {
				bad("unexpected key %d", id)
				return
			}
			seen[id] = true
			if name := row.Values[1].Str(); name != t.birds[id-1].name {
				bad("row %d name %q, want %q", id, name, t.birds[id-1].name)
			}
			labels, sum := classSum(row)
			if hi := t.attemptedCount(id); sum < lo[id-o.key] || sum > hi {
				bad("row %d carries %d annotations, want %d..%d", id, sum, lo[id-o.key], hi)
			}
			qi.ids = append(qi.ids, id)
			qi.anns += sum
			for l, n := range labels {
				qi.labels[l] += n
			}
		}
		cl.remember(qi)
	case joinQ:
		want := t.byObs[o.x]
		if len(resp.Rows) != len(want) {
			bad("%d rows, want %d", len(resp.Rows), len(want))
			return
		}
		seen := make(map[int]bool, len(want))
		for i := range resp.Rows {
			row := &resp.Rows[i]
			sid := int(row.Values[2].Int())
			if sid < 1 || sid > len(t.sightings) || seen[sid] {
				bad("unexpected sighting %d", sid)
				return
			}
			seen[sid] = true
			s := t.sightings[sid-1]
			if s.observers != o.x || int(row.Values[0].Int()) != s.bird {
				bad("sighting %d joined to bird %d with observers %d", sid, row.Values[0].Int(), s.observers)
			}
			if _, sum := classSum(row); sum != t.anns[s.bird-1].acked+t.sightAnns[sid] {
				bad("sighting %d carries %d annotations, want %d", sid, sum, t.anns[s.bird-1].acked+t.sightAnns[sid])
			}
		}
		cl.remember(qidInfo{qid: resp.QID})
	case scanQ:
		matching := 0
		for _, b := range t.birds {
			if b.cents >= o.x {
				matching++
			}
		}
		if matching > scanLimit {
			matching = scanLimit
		}
		if len(resp.Rows) != matching {
			bad("%d rows, want %d", len(resp.Rows), matching)
			return
		}
		seen := make(map[int]bool, matching)
		for i := range resp.Rows {
			row := &resp.Rows[i]
			id := int(row.Values[0].Int())
			if id < 1 || id > len(t.birds) || seen[id] || t.birds[id-1].cents < o.x {
				bad("unexpected key %d", id)
				return
			}
			seen[id] = true
			if _, sum := classSum(row); sum != t.anns[id-1].acked {
				bad("row %d carries %d annotations, want %d", id, sum, t.anns[id-1].acked)
			}
		}
		cl.remember(qidInfo{qid: resp.QID})
	case groupQ:
		rows := map[string]int{}
		anns := map[string]int{}
		for i := o.x; i < len(t.birds); i++ { // ids above o.x
			rows[t.birds[i].region]++
			anns[t.birds[i].region] += t.anns[i].acked
		}
		if len(resp.Rows) != len(rows) {
			bad("%d groups, want %d", len(resp.Rows), len(rows))
			return
		}
		for i := range resp.Rows {
			row := &resp.Rows[i]
			region := row.Values[0].Str()
			if n := int(row.Values[1].Int()); n != rows[region] {
				bad("group %q counts %d rows, want %d", region, n, rows[region])
			}
			if _, sum := classSum(row); sum != anns[region] {
				bad("group %q carries %d annotations, want %d", region, sum, anns[region])
			}
		}
		cl.remember(qidInfo{qid: resp.QID})
	case zoomQ:
		// The answer comes from the materialized result, which holds the
		// annotations the SELECT counted — unless an earlier miss on this
		// QID re-executed the query and admitted a fresh result. So at
		// least what the SELECT counted under the label, and at most that
		// plus what has been attached to the rows since.
		want, since := q.labels[o.label-1], -q.anns
		for _, id := range q.ids {
			since += t.attemptedCount(id)
		}
		if got := len(resp.Rows); got < want || got > want+since {
			bad("%d annotations, want %d..%d", got, want, want+since)
		}
		for i := range resp.Rows {
			h := textHash(resp.Rows[i].Values[3].Str())
			found := false
			for _, id := range q.ids {
				if t.hasText(id, h) {
					found = true
					break
				}
			}
			if !found {
				bad("annotation %d is not one the generator attached to rows %v", resp.Rows[i].Values[0].Int(), q.ids)
			}
		}
	}
}
