package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/server"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
)

// runConfig is what one workload run needs from the command line.
type runConfig struct {
	seed     int64
	seconds  float64 // length of the measured pass
	trace    bool    // run the traced pass and the layer probes
	quick    bool
	setups   int    // set-up repetitions; the median is reported
	reopens  int    // recovery repetitions; the median is reported
	clients  int    // closed-loop clients = GOMAXPROCS
	dir      string // parent of the run's temp directory ("" = os.TempDir)
	traceOut string // span file ("" = not written)
}

// sample is one successful statement of a pass.
type sample struct {
	cls class
	lat time.Duration
	end time.Duration // completion, since the pass began
}

// env is one set-up system under test: a durable engine served over TCP
// in this process, and the clients connected to it.
type env struct {
	sp      *spec
	cfg     *runConfig
	dataDir string
	db      *engine.DB
	srv     *server.Server
	addr    string
	truth   *truth
	bad     *problems
	clients []*client
}

func (e *env) engineConfig(dataDir string) (engine.Config, engine.DurabilityOptions) {
	// Production defaults except the two sizes the workload is about and
	// the zoom-in spill directory, which is a path.
	return engine.Config{
			PoolFrames:  e.sp.poolFrames,
			CacheBudget: e.sp.cacheBudget,
			CacheDir:    filepath.Join(dataDir, "zoom"),
		},
		engine.DurabilityOptions{Dir: dataDir}
}

// load applies the corpus: rows by BULK INSERT, the index, the three
// summary instances trained and linked, annotations by AnnotateBatch,
// and a CHECKPOINT so recovery starts from a snapshot.
func (e *env) load(c *corpus) error {
	ctx := context.Background()
	exec := func(stmts ...string) error {
		for _, s := range stmts {
			if _, err := e.db.Exec(ctx, s); err != nil {
				return fmt.Errorf("%.60s: %w", s, err)
			}
		}
		return nil
	}
	if err := exec(c.ddl...); err != nil {
		return err
	}
	if err := exec(c.inserts...); err != nil {
		return err
	}
	if err := exec("CREATE INDEX ON birds (id)"); err != nil {
		return err
	}
	if err := populate.InstallBirdInstances(e.db, workload.New(c.trainSeed), 6); err != nil {
		return err
	}
	if len(c.sightings) > 0 {
		err := exec("CREATE INDEX ON sightings (sid)",
			"LINK SUMMARY ClassBird1 TO sightings",
			"LINK SUMMARY SimCluster TO sightings",
			"LINK SUMMARY TextSummary1 TO sightings")
		if err != nil {
			return err
		}
	}
	for _, batch := range c.annotate {
		if _, _, err := e.db.AnnotateBatch(batch); err != nil {
			return err
		}
	}
	return exec("CHECKPOINT")
}

// setup builds the system and warms it up, and reports how long that
// took: open, load, listen, dial, warm-up. The warm-up is a fixed number
// of statements so that set-up is the same work on every commit.
func setup(sp *spec, cfg *runConfig, c *corpus, dataDir string, bad *problems) (*env, time.Duration, error) {
	e := &env{sp: sp, cfg: cfg, dataDir: dataDir, truth: c.newTruth(), bad: bad}
	gens := make([]*opGen, cfg.clients)
	warm := make([][]op, cfg.clients)
	for i := range gens {
		gens[i] = newOpGen(sp, cfg.seed, i)
		for k := 0; k < sp.warmOps/cfg.clients; k++ {
			warm[i] = append(warm[i], gens[i].next())
		}
	}
	settle()
	start := time.Now()
	ec, do := e.engineConfig(dataDir)
	db, _, err := engine.OpenDurable(ec, do)
	if err != nil {
		return nil, 0, err
	}
	e.db = db
	if err := e.load(c); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	e.srv = server.New(db)
	if e.addr, err = e.srv.Listen("127.0.0.1:0"); err != nil {
		e.close()
		return nil, 0, err
	}
	for _, g := range gens {
		cl, err := dial(e.addr, g, e.truth, e.bad)
		if err != nil {
			e.close()
			return nil, 0, err
		}
		e.clients = append(e.clients, cl)
	}
	if _, err := e.pass(warm, 0); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return e, time.Since(start), nil
}

// close stops clients, server and engine, in that order.
func (e *env) close() error {
	for _, cl := range e.clients {
		cl.c.Close()
	}
	e.clients = nil
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.db == nil {
		return nil
	}
	err := e.db.Close()
	e.db = nil
	return err
}

// passResult is what the clients observed over one pass.
type passResult struct {
	samples []sample // all clients, in completion order
	failed  int
	wall    time.Duration // start to the last completion
}

// pass runs every client's stream as a closed loop, one goroutine and one
// connection each, until the streams end or limit elapses (0: no limit).
func (e *env) pass(ops [][]op, limit time.Duration) (passResult, error) {
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	results := make([]passResult, len(e.clients))
	begin := time.Now()
	for i, cl := range e.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			r := &results[i]
			r.samples = make([]sample, 0, len(ops[i]))
			for _, o := range ops[i] {
				if limit > 0 && time.Since(begin) >= limit {
					break
				}
				cls, start, d, ok, err := cl.run(ctx, o)
				if err != nil {
					errs[i] = err
					return
				}
				if !ok {
					r.failed++
					continue
				}
				r.samples = append(r.samples, sample{cls, d, start.Add(d).Sub(begin)})
			}
		}(i, cl)
	}
	wg.Wait()
	var out passResult
	for i, r := range results {
		if errs[i] != nil {
			return out, fmt.Errorf("client %d: %w", i, errs[i])
		}
		out.samples = append(out.samples, r.samples...)
		out.failed += r.failed
	}
	sort.Slice(out.samples, func(a, b int) bool { return out.samples[a].end < out.samples[b].end })
	if n := len(out.samples); n > 0 {
		out.wall = out.samples[n-1].end
	}
	return out, nil
}

// settle flushes the file system's dirty pages before a timed section.
// Set-up writes tens of megabytes that the kernel would otherwise write
// back at a moment of its choosing, often in the middle of the measured
// pass: without this the same seed gives throughput 25 % apart on
// curation_mix, whose every SELECT creates and removes a cache file.
func settle() { syscall.Sync() }

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// freeze copies the recovery state (snapshot and WAL) of a quiescent data
// directory. Recovery is timed on this copy, taken after the fixed-size
// warm-up, so it is the same work whatever the measured pass got done.
func freeze(dataDir, frozen string) error {
	if err := os.MkdirAll(frozen, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"snapshot.json", "wal.log"} {
		if err := copyFile(filepath.Join(frozen, name), filepath.Join(dataDir, name)); err != nil {
			return err
		}
	}
	return nil
}

// reopen times engine.OpenDurable on a data directory.
func (e *env) reopen(dataDir string) (*engine.DB, time.Duration, error) {
	ec, do := e.engineConfig(dataDir)
	settle()
	start := time.Now()
	db, _, err := engine.OpenDurable(ec, do)
	return db, time.Since(start), err
}

// passOps is the length of the measured pass in statements: the
// workload's constant for 10 s, scaled by -seconds.
func passOps(sp *spec, cfg *runConfig) int { return int(float64(sp.passOps) * cfg.seconds / 10) }

// runWorkload measures one workload: set-up (several times, keeping the
// last), measured pass, counter snapshot, traced pass, close, timed
// recovery, and the durability check on the re-opened data.
func runWorkload(sp spec, cfg runConfig) (*workloadResult, error) {
	root, err := os.MkdirTemp(cfg.dir, "insightnotes-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	c := buildCorpus(&sp, cfg.seed)

	var e *env
	var setups []float64
	bad := &problems{} // mismatches of every pass, warm-ups included
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			os.RemoveAll(e.dataDir)
		}
		var d time.Duration
		e, d, err = setup(&sp, &cfg, c, filepath.Join(root, fmt.Sprint("data", i)), bad)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer e.close()
	frozen := filepath.Join(root, "frozen")
	if err := freeze(e.dataDir, frozen); err != nil {
		return nil, err
	}

	// The statement streams are generated before the clock starts; the
	// system under test sees only statements.
	ops := make([][]op, len(e.clients))
	for i, cl := range e.clients {
		ops[i] = make([]op, passOps(&sp, &cfg)/len(e.clients))
		for k := range ops[i] {
			ops[i][k] = cl.gen.next()
		}
	}
	settle()
	before := snapshot(e.db)
	measured, err := e.pass(ops, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, fmt.Errorf("measured pass: %w", err)
	}
	after := snapshot(e.db)

	res := newResult(&sp, &cfg, c)
	res.endToEnd(measured, setups)
	if cfg.trace {
		settle()
		rec := &recorder{origin: time.Now()}
		if err := e.tracedPass(rec); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := res.perLayer(e, rec, before, after, filepath.Join(root, "probe")); err != nil {
			return nil, err
		}
		if cfg.traceOut != "" {
			if err := rec.write(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	var recoveries []float64
	for i := 0; i < cfg.reopens; i++ {
		db, d, err := e.reopen(frozen)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		db.Close()
		recoveries = append(recoveries, d.Seconds())
	}
	res.set(res.EndToEnd, "recovery_s", median(recoveries), spread(recoveries))

	db, d, err := e.reopen(e.dataDir)
	if err != nil {
		return nil, fmt.Errorf("re-open after the run: %w", err)
	}
	res.ReopenAfterRunS = d.Seconds()
	verifyDurable(db, e.truth, bad, cfg.seed)
	db.Close()

	res.Mismatches, res.MismatchCount = bad.first, bad.count
	res.Correct = bad.count == 0
	return res, nil
}
