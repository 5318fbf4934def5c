package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/storage"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
)

// Online integrity: the background scrubber sweeps every page of the page
// file — which holds the raw annotation text and nothing else — through
// checksum and structural verification. A page whose stored copy is bad
// but whose buffer-pool frame survives is reflushed from that frame. Any
// other bad page is quarantined: reads of it (zoom-ins, link backfills,
// retractions) fail fast with the structured corruption error (the server
// sheds them with code CORRUPT) instead of serving garbage, and CHECKPOINT
// refuses, until a restart rebuilds the page file from the checkpoint and
// WAL. Table rows live in memory and are not swept; each sweep checks
// every secondary index against its table's rows and rebuilds one that
// disagrees. CHECK TABLE runs that index check synchronously for one
// table; SHOW INTEGRITY surfaces the cumulative report.

// scrubSampleRows caps the per-page sampled page↔store agreement checks,
// bounding structural verification cost per page.
const scrubSampleRows = 8

// DefaultScrubRate is the background sweep's page-per-second budget when
// Config.ScrubRate is zero.
const DefaultScrubRate = 256

// integrityFaultRing bounds the recent-fault list kept for SHOW INTEGRITY.
const integrityFaultRing = 64

// annotationsOwner is the owner of every page fault: the annotation heap
// is the page file's only tenant.
const annotationsOwner = "annotations"

// IntegrityFault records one page (or index) a sweep found corrupt and
// what became of it.
type IntegrityFault struct {
	Page     storage.PageID // InvalidPageID for index faults
	Owner    string
	Detail   string
	Repaired bool
	Source   string // "flush" (annotation pages) or "rebuild" (indexes); empty when unrepaired
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
func (db *DB) ScrubNow() IntegrityReport {
	lc := db.tracer.Start("SCRUB")
	faults := db.scrubSweep(lc, 0, nil)
	lc.Finish("scrub", nil)
	rep := db.IntegrityReport()
	rep.Faults = faults
	return rep
}

// CheckTable synchronously verifies every secondary index of one table
// against its rows, rebuilding one that disagrees; the returned report's
// Faults are this check's findings only. Page faults are the scrubber's:
// ScrubNow and SHOW INTEGRITY report them. lc may be nil (untraced).
func (db *DB) CheckTable(name string, lc *trace.Active) (IntegrityReport, error) {
	db.stmtMu.RLock()
	tbl, err := db.catStore().Table(name)
	db.stmtMu.RUnlock()
	if err != nil {
		return IntegrityReport{}, err
	}
	ssp := lc.StartSpan(trace.SpanScrubSweep, nil)
	ssp.Attr("table", tbl.Name())
	faults := db.sweepIndexes(lc, []string{tbl.Name()})
	ssp.AttrInt("faults", int64(len(faults)))
	ssp.End()
	db.integrity.recordSweep(time.Now(), faults)
	rep := db.IntegrityReport()
	rep.Faults = faults
	return rep, nil
}

// ---- sweep ----

// scrubFault is a sweep-internal fault: the page and the verification
// error, which is nil for a page quarantined before this sweep (reported
// again, not re-counted as a new failure).
type scrubFault struct {
	pid storage.PageID
	err error
}

// scrubSweep runs one verification pass over the annotation pages
// followed by a repair pass over what it found, plus any still-quarantined
// pages from earlier sweeps, then checks and repairs every table's
// indexes. rate caps verified pages per second (<=0 = unthrottled); stop
// aborts between batches, returning nothing. It acquires the statement
// lock internally — callers must not hold it.
func (db *DB) scrubSweep(lc *trace.Active, rate int, stop <-chan struct{}) []IntegrityFault {
	ssp := lc.StartSpan(trace.SpanScrubSweep, nil)
	defer ssp.End()

	db.stmtMu.RLock()
	pages := db.annStore().Pages()
	db.stmtMu.RUnlock()

	quarantined := make(map[storage.PageID]bool)
	for _, pid := range db.pool.Quarantined() {
		quarantined[pid] = true
	}

	var faults []scrubFault
	var scanned uint64
	batch := len(pages)
	if rate > 0 && rate < batch {
		batch = rate
	}
	for idx := 0; idx < len(pages); idx += batch {
		end := min(idx+batch, len(pages))
		db.stmtMu.RLock()
		// Re-resolve ownership: a replica resync replaces the annotation
		// store between batches of a throttled sweep; stale pages are
		// skipped, not faulted.
		anns := db.annStore()
		owned := make(map[storage.PageID]bool)
		for _, pid := range anns.Pages() {
			owned[pid] = true
		}
		for _, pid := range pages[idx:end] {
			if !owned[pid] || quarantined[pid] {
				// Stale, or already known corrupt: the latter goes straight
				// to the repair pass.
				continue
			}
			scanned++
			if verr := db.verifyPageLocked(anns, pid); verr != nil {
				faults = append(faults, scrubFault{pid: pid, err: verr})
			}
		}
		db.stmtMu.RUnlock()
		if rate > 0 && end < len(pages) {
			select {
			case <-stop:
				return nil
			case <-time.After(time.Second):
			}
		}
	}

	db.integrity.scanned.Add(scanned)
	db.integrity.failures.Add(uint64(len(faults)))
	// Report pages quarantined by earlier sweeps (or by read-path fetch
	// failures) again, so a sweep never reads clean while one remains.
	for _, pid := range pages {
		if quarantined[pid] {
			faults = append(faults, scrubFault{pid: pid})
			delete(quarantined, pid)
		}
	}
	report := db.repairFaults(lc, faults)

	db.stmtMu.RLock()
	tables := db.catStore().TableNames()
	db.stmtMu.RUnlock()
	report = append(report, db.sweepIndexes(lc, tables)...)

	ssp.AttrInt("pages", int64(scanned))
	ssp.AttrInt("faults", int64(len(report)))
	db.integrity.recordSweep(time.Now(), report)
	return report
}

// verifyPageLocked checks one annotation page: the stored copy's CRC
// (direct store read, bypassing the cache), then the page's structure and
// its agreement with the store's id index through the pool. Callers hold
// the statement lock (shared suffices: writers are excluded).
func (db *DB) verifyPageLocked(anns *annotation.Store, pid storage.PageID) error {
	if err := db.pool.VerifyStored(pid); err != nil {
		return err
	}
	return anns.VerifyAnnPage(pid, scrubSampleRows)
}

// sweepIndexes verifies the secondary indexes of the named tables —
// memory-resident, so their internal ordering and fencing and their
// agreement with the table's row count — and rebuilds those that fail,
// returning one fault per table with a bad index.
func (db *DB) sweepIndexes(lc *trace.Active, tables []string) []IntegrityFault {
	var faults []IntegrityFault
	var bad []string
	db.stmtMu.RLock()
	cat := db.catStore()
	for _, name := range tables {
		tbl, err := cat.Table(name)
		if err != nil {
			continue // dropped mid-sweep
		}
		if verr := tbl.VerifyIndexes(); verr != nil {
			bad = append(bad, name)
			faults = append(faults, IntegrityFault{
				Page: storage.InvalidPageID, Owner: "index:" + name, Detail: verr.Error(),
			})
		}
	}
	db.stmtMu.RUnlock()
	db.integrity.failures.Add(uint64(len(faults)))
	return db.repairIndexes(lc, bad, faults)
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
		out[i] = IntegrityFault{Page: f.pid, Owner: annotationsOwner, Detail: "found corrupt by an earlier sweep"}
		if f.err != nil {
			out[i].Detail = f.err.Error()
		}
		if db.reflushLocked(lc, f.pid) {
			out[i].Repaired = true
			out[i].Source = "flush"
			db.integrity.repairs.Add(1)
			continue
		}
		if f.err != nil {
			db.pool.Quarantine(f.pid, f.err)
		}
		out[i].Detail += "; quarantined until restart"
	}
	return out
}

// reflushLocked tries the local rung of the ladder for one page — the
// stored copy is bad but a good frame survives in the pool — and reports
// whether the page now verifies clean. Callers hold the exclusive
// statement lock.
func (db *DB) reflushLocked(lc *trace.Active, pid storage.PageID) bool {
	rsp := lc.StartSpan(trace.SpanScrubRepair, nil)
	rsp.AttrInt("page", int64(pid))
	rsp.Attr("owner", annotationsOwner)
	defer rsp.End()
	if ok, err := db.pool.FlushResident(pid); err == nil && ok {
		if db.verifyPageLocked(db.annStore(), pid) == nil {
			rsp.Attr("source", "flush")
			return true
		}
	}
	rsp.Attr("source", "none_local")
	return false
}

// repairIndexes rebuilds every secondary index of the named tables from
// their rows and re-verifies, annotating the given fault records.
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
			s.db.scrubSweep(lc, s.rate, s.stop)
			lc.Finish("scrub", nil)
		}
	}
}

func (s *scrubber) close() {
	close(s.stop)
	<-s.done
}
