package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/storage"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
)

// Online integrity: the background scrubber sweeps every heap page — table
// rows and annotation text — through checksum and structural verification.
// A page whose stored copy is bad but whose buffer-pool frame survives is
// reflushed from that frame. Any other bad page is quarantined: reads fail
// fast with the structured corruption error (the server sheds them with
// code CORRUPT) instead of serving garbage, and CHECKPOINT refuses, until
// a restart rebuilds the page file from the checkpoint and WAL. Secondary
// indexes are rebuilt from their table's heap. CHECK TABLE runs the same
// sweep synchronously for one table; SHOW INTEGRITY surfaces the
// cumulative report.

// scrubSampleRows caps the per-page sampled heap↔index (and heap↔store)
// agreement checks, bounding structural verification cost per page.
const scrubSampleRows = 8

// DefaultScrubRate is the background sweep's page-per-second budget when
// Config.ScrubRate is zero.
const DefaultScrubRate = 256

// integrityFaultRing bounds the recent-fault list kept for SHOW INTEGRITY.
const integrityFaultRing = 64

// ownerKind names the store a heap page belongs to; each owner has its own
// structural verification (see verifyScrubTargetLocked).
type ownerKind int

const (
	ownerTable ownerKind = iota // table heap: rows live only here
	ownerAnn                    // annotation heap: raw text lives only here
)

type scrubTarget struct {
	pid   storage.PageID
	kind  ownerKind
	table string // ownerTable only
}

func (t scrubTarget) ownerName() string {
	if t.kind == ownerTable {
		return "table:" + t.table
	}
	return "annotations"
}

// IntegrityFault records one page (or index) a sweep found corrupt and
// what became of it.
type IntegrityFault struct {
	Page     storage.PageID // InvalidPageID for index faults
	Owner    string
	Detail   string
	Repaired bool
	Source   string // "flush" (heap pages) or "rebuild" (indexes); empty when unrepaired
}

// IntegrityReport is the scrubber's cumulative state, surfaced by
// SHOW INTEGRITY and returned by CheckTable/ScrubNow.
type IntegrityReport struct {
	Sweeps           uint64
	PagesScanned     uint64
	ChecksumFailures uint64
	Repairs          uint64
	Quarantined      []storage.PageID
	LastSweep        time.Time
	Faults           []IntegrityFault // newest first, bounded
}

// integrityState is the DB's always-present integrity bookkeeping; the
// atomics back the insightnotes_integrity_* metrics.
type integrityState struct {
	scanned  atomic.Uint64
	failures atomic.Uint64
	repairs  atomic.Uint64

	mu        sync.Mutex
	sweeps    uint64
	lastSweep time.Time
	faults    []IntegrityFault // newest first, capped at integrityFaultRing
}

func (s *integrityState) recordSweep(now time.Time, faults []IntegrityFault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweeps++
	s.lastSweep = now
	for i := len(faults) - 1; i >= 0; i-- {
		s.faults = append([]IntegrityFault{faults[i]}, s.faults...)
	}
	if len(s.faults) > integrityFaultRing {
		s.faults = s.faults[:integrityFaultRing]
	}
}

// FlushPages writes every dirty buffer-pool frame to the page store and
// drops the clean frames, making the stored copies authoritative — the
// setup step for cold integrity sweeps, offline backups, and the bit-rot
// soak (which flips bytes in the page file and expects the scrubber to
// notice).
func (db *DB) FlushPages() error {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	db.pool.DropClean()
	return nil
}

// HeapPageInventory returns every heap page id grouped by owner name
// ("table:<name>", "annotations") — the page set the scrubber sweeps,
// exposed for integrity tooling and the chaos soak.
func (db *DB) HeapPageInventory() (map[string][]storage.PageID, error) {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	inv, _, err := db.scrubInventoryLocked("")
	if err != nil {
		return nil, err
	}
	out := make(map[string][]storage.PageID)
	for _, t := range inv {
		out[t.ownerName()] = append(out[t.ownerName()], t.pid)
	}
	return out, nil
}

// IntegrityReport returns the scrubber's cumulative state.
func (db *DB) IntegrityReport() IntegrityReport {
	st := &db.integrity
	st.mu.Lock()
	rep := IntegrityReport{
		Sweeps:    st.sweeps,
		LastSweep: st.lastSweep,
		Faults:    append([]IntegrityFault(nil), st.faults...),
	}
	st.mu.Unlock()
	rep.PagesScanned = st.scanned.Load()
	rep.ChecksumFailures = st.failures.Load() + db.pool.ReadFailures()
	rep.Repairs = st.repairs.Load()
	rep.Quarantined = db.pool.Quarantined()
	return rep
}

// ScrubNow runs one full synchronous sweep (verify + repair, unthrottled)
// and returns the report including the faults of this sweep.
func (db *DB) ScrubNow() (IntegrityReport, error) {
	lc := db.tracer.Start("SCRUB")
	faults, err := db.scrubSweep(lc, "", 0, nil)
	lc.Finish("scrub", err)
	if err != nil {
		return IntegrityReport{}, err
	}
	rep := db.IntegrityReport()
	rep.Faults = faults
	return rep, nil
}

// CheckTable synchronously verifies every heap page and every secondary
// index of one table, repairing what it can; the returned report's Faults
// are this check's findings only. lc may be nil (untraced).
func (db *DB) CheckTable(name string, lc *trace.Active) (IntegrityReport, error) {
	faults, err := db.scrubSweep(lc, name, 0, nil)
	if err != nil {
		return IntegrityReport{}, err
	}
	rep := db.IntegrityReport()
	rep.Faults = faults
	return rep, nil
}

// ---- sweep ----

// scrubFault is a sweep-internal fault: the target and the verification
// error, which is nil for a page quarantined before this sweep (reported
// again, not re-counted as a new failure).
type scrubFault struct {
	target scrubTarget
	err    error
}

// scrubSweep runs one verification pass over the page inventory (filter
// restricts it to one table; "" sweeps everything) followed by a repair
// pass over what it found, plus any still-quarantined pages from earlier
// sweeps. rate caps verified pages per second (<=0 = unthrottled); stop
// aborts between batches. It acquires the statement lock internally —
// callers must not hold it.
func (db *DB) scrubSweep(lc *trace.Active, filter string, rate int, stop <-chan struct{}) ([]IntegrityFault, error) {
	ssp := lc.StartSpan(trace.SpanScrubSweep, nil)
	defer ssp.End()

	db.stmtMu.RLock()
	inv, tables, err := db.scrubInventoryLocked(filter)
	db.stmtMu.RUnlock()
	if err != nil {
		return nil, err
	}

	quarantined := make(map[storage.PageID]bool)
	for _, pid := range db.pool.Quarantined() {
		quarantined[pid] = true
	}

	var faults []scrubFault
	var scanned uint64
	batch := len(inv)
	if rate > 0 && rate < batch {
		batch = rate
	}
	for idx := 0; idx < len(inv); idx += batch {
		end := idx + batch
		if end > len(inv) {
			end = len(inv)
		}
		db.stmtMu.RLock()
		// Re-resolve ownership: tables can be dropped and heaps reshaped
		// between batches of a throttled sweep; stale targets are skipped,
		// not faulted.
		cur, _, ierr := db.scrubInventoryLocked(filter)
		if ierr != nil {
			db.stmtMu.RUnlock()
			return nil, ierr
		}
		owned := make(map[storage.PageID]bool, len(cur))
		for _, t := range cur {
			owned[t.pid] = true
		}
		for _, t := range inv[idx:end] {
			if !owned[t.pid] {
				continue
			}
			if quarantined[t.pid] {
				// Already known corrupt: goes straight to the repair pass.
				continue
			}
			scanned++
			if verr := db.verifyScrubTargetLocked(t); verr != nil {
				faults = append(faults, scrubFault{target: t, err: verr})
			}
		}
		db.stmtMu.RUnlock()
		if rate > 0 && end < len(inv) {
			select {
			case <-stop:
				return nil, nil
			case <-time.After(time.Second):
			}
		}
	}

	// Secondary indexes are memory-resident: verify their internal
	// ordering/fencing and their agreement with the heap's row count.
	var indexFaults []IntegrityFault
	db.stmtMu.RLock()
	cat := db.catStore()
	var badIndexTables []string
	for _, name := range tables {
		tbl, terr := cat.Table(name)
		if terr != nil {
			continue
		}
		if verr := tbl.VerifyIndexes(); verr != nil {
			badIndexTables = append(badIndexTables, name)
			indexFaults = append(indexFaults, IntegrityFault{
				Page: storage.InvalidPageID, Owner: "index:" + name, Detail: verr.Error(),
			})
		}
	}
	db.stmtMu.RUnlock()

	db.integrity.scanned.Add(scanned)
	db.integrity.failures.Add(uint64(len(faults) + len(indexFaults)))
	// Report pages quarantined by earlier sweeps (or by read-path fetch
	// failures) again, so a check never reads clean while one remains.
	for _, t := range inv {
		if quarantined[t.pid] {
			faults = append(faults, scrubFault{target: t})
			delete(quarantined, t.pid)
		}
	}

	report := db.repairFaults(lc, faults)
	report = append(report, db.repairIndexes(lc, badIndexTables, indexFaults)...)

	ssp.AttrInt("pages", int64(scanned))
	ssp.AttrInt("faults", int64(len(report)))
	if filter != "" {
		ssp.Attr("table", filter)
	}
	db.integrity.recordSweep(time.Now(), report)
	return report, nil
}

// scrubInventoryLocked enumerates every heap page with its owner, plus the
// table names whose indexes the sweep should verify. Callers hold the
// shared statement lock.
func (db *DB) scrubInventoryLocked(filter string) ([]scrubTarget, []string, error) {
	cat := db.catStore()
	var targets []scrubTarget
	var tables []string
	if filter != "" {
		tbl, err := cat.Table(filter)
		if err != nil {
			return nil, nil, err
		}
		for _, pid := range tbl.HeapPages() {
			targets = append(targets, scrubTarget{pid: pid, kind: ownerTable, table: tbl.Name()})
		}
		return targets, []string{tbl.Name()}, nil
	}
	for _, name := range cat.TableNames() {
		tbl, err := cat.Table(name)
		if err != nil {
			continue
		}
		tables = append(tables, name)
		for _, pid := range tbl.HeapPages() {
			targets = append(targets, scrubTarget{pid: pid, kind: ownerTable, table: name})
		}
	}
	for _, pid := range db.annStore().Pages() {
		targets = append(targets, scrubTarget{pid: pid, kind: ownerAnn})
	}
	return targets, tables, nil
}

// verifyScrubTargetLocked checks one page: the stored copy's CRC (direct
// store read, bypassing the cache), then the owner's structural and
// cross-store invariants through the pool. Callers hold the statement
// lock (shared suffices: writers are excluded).
func (db *DB) verifyScrubTargetLocked(t scrubTarget) error {
	if err := db.pool.VerifyStored(t.pid); err != nil {
		return err
	}
	if t.kind == ownerAnn {
		return db.annStore().VerifyAnnPage(t.pid, scrubSampleRows)
	}
	tbl, err := db.catStore().Table(t.table)
	if err != nil {
		return nil // dropped mid-sweep
	}
	return tbl.VerifyPage(t.pid, scrubSampleRows)
}

// ---- repair ----

// repairFaults walks the repair ladder for each faulty page under one
// exclusive lock section: reflush a surviving buffer-pool frame, else
// quarantine the page until a restart rebuilds the page file.
func (db *DB) repairFaults(lc *trace.Active, faults []scrubFault) []IntegrityFault {
	if len(faults) == 0 {
		return nil
	}
	out := make([]IntegrityFault, len(faults))
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	for i, f := range faults {
		out[i] = IntegrityFault{Page: f.target.pid, Owner: f.target.ownerName(), Detail: "found corrupt by an earlier sweep"}
		if f.err != nil {
			out[i].Detail = f.err.Error()
		}
		if db.reflushLocked(lc, f.target) {
			out[i].Repaired = true
			out[i].Source = "flush"
			db.integrity.repairs.Add(1)
			continue
		}
		if f.err != nil {
			db.pool.Quarantine(f.target.pid, f.err)
		}
		out[i].Detail += "; quarantined until restart"
	}
	return out
}

// reflushLocked tries the local rung of the ladder for one page — the
// stored copy is bad but a good frame survives in the pool — and reports
// whether the page now verifies clean. Callers hold the exclusive
// statement lock.
func (db *DB) reflushLocked(lc *trace.Active, t scrubTarget) bool {
	rsp := lc.StartSpan(trace.SpanScrubRepair, nil)
	rsp.AttrInt("page", int64(t.pid))
	rsp.Attr("owner", t.ownerName())
	defer rsp.End()
	if ok, err := db.pool.FlushResident(t.pid); err == nil && ok {
		if db.verifyScrubTargetLocked(t) == nil {
			rsp.Attr("source", "flush")
			return true
		}
	}
	rsp.Attr("source", "none_local")
	return false
}

// repairIndexes rebuilds every secondary index of the named tables from
// their heaps and re-verifies, annotating the given fault records.
func (db *DB) repairIndexes(lc *trace.Active, tables []string, faults []IntegrityFault) []IntegrityFault {
	if len(tables) == 0 {
		return faults
	}
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	cat := db.catStore()
	for i, name := range tables {
		rsp := lc.StartSpan(trace.SpanScrubRepair, nil)
		rsp.Attr("owner", "index:"+name)
		tbl, err := cat.Table(name)
		if err != nil {
			rsp.Attr("source", "failed")
			rsp.End()
			continue
		}
		rerr := db.rebuildTableIndexesLocked(tbl)
		if rerr != nil {
			rsp.Attr("source", "failed")
			rsp.End()
			faults[i].Detail += "; rebuild failed: " + rerr.Error()
			continue
		}
		rsp.Attr("source", "rebuild")
		rsp.End()
		faults[i].Repaired = true
		faults[i].Source = "rebuild"
		db.integrity.repairs.Add(1)
	}
	return faults
}

func (db *DB) rebuildTableIndexesLocked(tbl *catalog.Table) error {
	for _, col := range tbl.IndexedColumns() {
		if err := tbl.RebuildIndex(col); err != nil {
			return err
		}
	}
	return tbl.VerifyIndexes()
}

// ---- result surfacing ----

// integritySchema is the row shape shared by CHECK TABLE and
// SHOW INTEGRITY: one row per fault.
func integritySchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "page", Kind: types.KindInt},
		types.Column{Name: "owner", Kind: types.KindString},
		types.Column{Name: "detail", Kind: types.KindString},
		types.Column{Name: "repaired", Kind: types.KindBool},
		types.Column{Name: "source", Kind: types.KindString},
	)
}

func integrityRows(faults []IntegrityFault) []*exec.Row {
	var rows []*exec.Row
	for _, f := range faults {
		page := int64(-1)
		if f.Page != storage.InvalidPageID {
			page = int64(f.Page)
		}
		rows = append(rows, &exec.Row{Tuple: types.Tuple{
			types.NewInt(page),
			types.NewString(f.Owner),
			types.NewString(f.Detail),
			types.NewBool(f.Repaired),
			types.NewString(f.Source),
		}})
	}
	return rows
}

// ---- background scrubber ----

// scrubber is the rate-limited background sweep worker.
type scrubber struct {
	db       *DB
	interval time.Duration
	rate     int
	stop     chan struct{}
	done     chan struct{}
}

func startScrubber(db *DB, interval time.Duration, rate int) *scrubber {
	if rate <= 0 {
		rate = DefaultScrubRate
	}
	s := &scrubber{
		db:       db,
		interval: interval,
		rate:     rate,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *scrubber) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			lc := s.db.tracer.Start("SCRUB")
			_, err := s.db.scrubSweep(lc, "", s.rate, s.stop)
			lc.Finish("scrub", err)
		}
	}
}

func (s *scrubber) close() {
	close(s.stop)
	<-s.done
}
