package replication

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/metrics"
	"insightnotes/internal/server"
	"insightnotes/internal/trace"
	"insightnotes/internal/wal"
)

// ReceiverConfig tunes the replica-side stream applier. PrimaryAddr is
// required; the rest defaults at NewReceiver.
type ReceiverConfig struct {
	// PrimaryAddr is the primary's replication listener (-replicate-from).
	PrimaryAddr string
	// MaxStaleness is the hard bound on how stale this replica may serve
	// reads: once the lag exceeds it, Staleness reports stale and the
	// server sheds reads with a structured STALE error until the replica
	// catches back up. 0 means serve regardless of lag.
	MaxStaleness time.Duration
	// Backoff paces reconnect attempts (capped exponential with jitter;
	// zero value uses the server package defaults).
	Backoff server.Backoff
	// Dial replaces net.Dial for the replication connection — the chaos
	// harness injects failpoint-driven flaky conns here.
	Dial func(addr string) (net.Conn, error)
	// BatchMax bounds how many records accumulate before an apply+fsync
	// (default 128). Larger batches amortize the replica's commit fsync
	// when the stream runs hot.
	BatchMax int
}

// Receiver follows a primary's replication stream: it resumes from the
// last LSN its own WAL holds durably, applies shipped records through
// the engine's recovery redo path (persisting them locally before
// acknowledging), installs full snapshots when the primary sheds it for
// falling behind a rotated WAL, and maintains the explicit staleness
// measure the server attaches to every replica-served read.
//
// It implements server.ReplicaSource.
type Receiver struct {
	db  *engine.DB
	cfg ReceiverConfig

	stop    chan struct{}
	wg      sync.WaitGroup
	tip     atomic.Uint64 // primary's last-announced position
	applied atomic.Uint64 // highest LSN applied and durable locally
	dead    atomic.Bool   // simulated crash-stop (failpoint); stops the loop

	mu      sync.Mutex
	conn    net.Conn  // live connection, for Shutdown to sever
	freshAt time.Time // last instant applied had caught up with tip

	recordsApplied *metrics.Counter
	applyErrors    *metrics.Counter
	resyncs        *metrics.Counter
	reconnects     *metrics.Counter
}

// NewReceiver builds a receiver for db, which must be durable (the
// replica persists the stream into its own WAL). Call Start to begin
// following the primary.
func NewReceiver(db *engine.DB, cfg ReceiverConfig) (*Receiver, error) {
	if db.WAL() == nil {
		return nil, errors.New("replication: receiver requires a durable engine (-data-dir)")
	}
	if cfg.PrimaryAddr == "" {
		return nil, errors.New("replication: receiver requires a primary address")
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 128
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	r := &Receiver{db: db, cfg: cfg, stop: make(chan struct{})}
	pos := db.ReplicationPosition()
	r.applied.Store(pos)
	r.tip.Store(pos)
	r.markFresh() // staleness clock starts at construction
	if reg := db.Metrics(); reg != nil {
		r.recordsApplied = reg.Counter(metrics.NameReplRecordsAppliedTotal,
			"Replicated WAL records applied and made durable locally.")
		r.applyErrors = reg.Counter(metrics.NameReplApplyErrorsTotal,
			"Replicated batches that failed to apply.")
		r.resyncs = reg.Counter(metrics.NameReplResyncsTotal,
			"Full-snapshot resyncs installed after falling behind a rotated primary WAL.")
		r.reconnects = reg.Counter(metrics.NameReplReconnectsTotal,
			"Reconnect attempts to the primary after a lost or refused replication connection.")
		reg.GaugeFunc(metrics.NameReplLagRecords,
			"Replication lag in records: primary tip LSN minus highest locally applied LSN.",
			func() float64 {
				lagLSN, _, _ := r.Staleness()
				return float64(lagLSN)
			})
		reg.GaugeFunc(metrics.NameReplLagSeconds,
			"Replication staleness in seconds: age of the last caught-up contact with the primary.",
			func() float64 {
				_, lag, _ := r.Staleness()
				return lag.Seconds()
			})
	}
	return r, nil
}

// Start launches the follow loop: dial, stream, apply; reconnect with
// capped backoff on any failure, resuming from the local WAL position.
func (r *Receiver) Start() {
	r.wg.Add(1)
	go r.run()
}

// Dead reports whether a crash failpoint stopped this receiver (the
// simulated process death of the chaos tests). A dead receiver's engine
// has a killed WAL handle; the test harness reopens the data directory
// as a restarted process would.
func (r *Receiver) Dead() bool { return r.dead.Load() }

// Applied returns the highest LSN applied and locally durable.
func (r *Receiver) Applied() uint64 { return r.applied.Load() }

// Staleness implements server.ReplicaSource: how far this replica trails
// the primary in LSNs, how old its last caught-up contact is, and
// whether that exceeds the configured hard bound.
func (r *Receiver) Staleness() (lagLSN uint64, lag time.Duration, stale bool) {
	tip, applied := r.tip.Load(), r.applied.Load()
	if tip > applied {
		lagLSN = tip - applied
	}
	r.mu.Lock()
	freshAt := r.freshAt
	r.mu.Unlock()
	lag = time.Since(freshAt)
	stale = r.cfg.MaxStaleness > 0 && (lag > r.cfg.MaxStaleness || r.dead.Load())
	return lagLSN, lag, stale
}

func (r *Receiver) markFresh() {
	r.mu.Lock()
	r.freshAt = time.Now()
	r.mu.Unlock()
}

func (r *Receiver) setConn(c net.Conn) {
	r.mu.Lock()
	r.conn = c
	r.mu.Unlock()
}

func (r *Receiver) stopping() bool {
	select {
	case <-r.stop:
		return true
	default:
		return r.dead.Load()
	}
}

func (r *Receiver) run() {
	defer r.wg.Done()
	first := true
	for attempt := 0; ; {
		if r.stopping() {
			return
		}
		if !first && r.reconnects != nil {
			r.reconnects.Inc()
		}
		first = false
		conn, err := r.cfg.Dial(r.cfg.PrimaryAddr)
		if err != nil {
			if !sleepUnless(r.stop, r.cfg.Backoff.Delay(attempt)) {
				return
			}
			attempt++
			continue
		}
		attempt = 0
		r.setConn(conn)
		r.session(conn)
		r.setConn(nil)
		conn.Close()
		if r.stopping() {
			return
		}
		if !sleepUnless(r.stop, r.cfg.Backoff.Delay(0)) {
			return
		}
	}
}

// session runs one connection's lifetime: hello with the local resume
// position, then apply whatever the primary streams until the connection
// or the receiver dies.
func (r *Receiver) session(conn net.Conn) {
	enc := newMsgConn(conn)
	if err := enc.write(&message{Kind: msgHello, FromLSN: r.db.ReplicationPosition()}); err != nil {
		return
	}

	msgCh := make(chan message, 256)
	errCh := make(chan error, 1)
	go func() {
		for {
			m, err := enc.read()
			if err != nil {
				errCh <- err
				return
			}
			select {
			case msgCh <- m:
			case <-r.stop:
				return
			}
		}
	}()

	var batch []wal.Record
	for {
		select {
		case <-r.stop:
			r.flush(&batch, enc)
			return
		case <-errCh:
			r.flush(&batch, enc)
			return
		case m := <-msgCh:
			// Drain everything already buffered before paying the apply
			// fsync, so a hot stream batches its commits.
			for {
				if err := r.handle(m, &batch, enc); err != nil {
					return
				}
				if len(batch) >= r.cfg.BatchMax {
					if err := r.flush(&batch, enc); err != nil {
						return
					}
				}
				select {
				case m = <-msgCh:
					continue
				default:
				}
				break
			}
			if err := r.flush(&batch, enc); err != nil {
				return
			}
		}
	}
}

// handle processes one stream message. Records accumulate into batch
// (flushed by the session loop); snapshots and heartbeats flush first so
// ordering is preserved.
func (r *Receiver) handle(m message, batch *[]wal.Record, enc *msgConn) error {
	switch m.Kind {
	case msgRecord:
		if m.TipLSN > r.tip.Load() {
			r.tip.Store(m.TipLSN)
		}
		*batch = append(*batch, wal.Record{LSN: m.LSN, Type: m.RecType, Data: m.Body})
		return nil
	case msgSnapshot:
		if err := r.flush(batch, enc); err != nil {
			return err
		}
		return r.installSnapshot(m, enc)
	case msgHeartbeat:
		if err := r.flush(batch, enc); err != nil {
			return err
		}
		if m.TipLSN > r.tip.Load() {
			r.tip.Store(m.TipLSN)
		}
		if r.applied.Load() >= r.tip.Load() {
			r.markFresh()
		}
		return nil
	default:
		return fmt.Errorf("replication: unexpected message kind 0x%02x", m.Kind)
	}
}

// flush applies the accumulated batch through the engine (redo + local
// WAL stage + one commit fsync), then acknowledges it. The
// fp/replication/ack crash point models the replica dying after the
// batch is durable but before the ack reaches the primary: on restart
// the primary resends from the acked position and the LSN check in
// ApplyReplicated deduplicates.
func (r *Receiver) flush(batch *[]wal.Record, enc *msgConn) error {
	if len(*batch) == 0 {
		return nil
	}
	recs := *batch
	*batch = (*batch)[:0]

	at := r.db.Tracer().Start("(replication apply)")
	sp := at.StartSpan(trace.SpanReplApply, at.Root())
	sp.AttrInt("records", int64(len(recs)))
	sp.AttrInt("first_lsn", int64(recs[0].LSN))
	sp.AttrInt("last_lsn", int64(recs[len(recs)-1].LSN))
	err := r.db.ApplyReplicated(recs)
	sp.End()
	at.Finish("repl_apply", err)
	if err != nil {
		if r.applyErrors != nil {
			r.applyErrors.Inc()
		}
		if failpoint.IsCrash(err) {
			// Simulated process death mid-apply: the engine already
			// killed its WAL handle; stop following. The harness reopens
			// the data directory as a restarted replica would.
			r.dead.Store(true)
		}
		return err
	}
	lsn := recs[len(recs)-1].LSN
	if lsn > r.applied.Load() {
		r.applied.Store(lsn)
	}
	if r.recordsApplied != nil {
		r.recordsApplied.Add(int64(len(recs)))
	}
	if r.applied.Load() >= r.tip.Load() {
		r.markFresh()
	}
	if err := failpoint.Eval(failpoint.ReplicationAck); err != nil {
		if failpoint.IsCrash(err) {
			// Death after durability, before the ack: the classic
			// resend-and-dedup window.
			r.dead.Store(true)
			r.db.WAL().Kill()
		}
		return err
	}
	return enc.write(&message{Kind: msgAck, LSN: lsn})
}

// installSnapshot replaces the replica's full state with a shipped
// checkpoint (the primary shed this replica for falling behind a rotated
// WAL) and acknowledges the new position. The engine checks the stream on
// a scratch engine first, so a damaged one is refused with the replica's
// state intact: the session drops and resyncs on reconnect.
func (r *Receiver) installSnapshot(m message, enc *msgConn) error {
	at := r.db.Tracer().Start("(replication resync)")
	sp := at.StartSpan(trace.SpanReplResync, at.Root())
	sp.AttrInt("snapshot_bytes", int64(len(m.Body)))
	lsn, err := r.db.InstallReplicaSnapshot(m.Body)
	sp.End()
	at.Finish("repl_resync", err)
	if err != nil {
		if r.applyErrors != nil {
			r.applyErrors.Inc()
		}
		return err
	}
	if r.resyncs != nil {
		r.resyncs.Inc()
	}
	r.applied.Store(lsn)
	if m.TipLSN > r.tip.Load() {
		r.tip.Store(m.TipLSN)
	}
	if r.applied.Load() >= r.tip.Load() {
		r.markFresh()
	}
	return enc.write(&message{Kind: msgAck, LSN: lsn})
}

// Shutdown stops following the primary: in-flight batches flush (apply
// is never abandoned halfway; durability is preserved), the connection
// closes, and the loop exits. Returns an error if the loop failed to
// stop within timeout (non-positive waits without bound).
func (r *Receiver) Shutdown(timeout time.Duration) error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.mu.Lock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return errors.New("replication: receiver shutdown timed out")
	}
}

// sleepUnless sleeps d, returning false early if stop closes.
func sleepUnless(stop <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}
