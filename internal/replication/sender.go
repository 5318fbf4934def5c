package replication

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/metrics"
	"insightnotes/internal/wal"
)

// SenderConfig tunes the primary-side WAL shipper. The zero value is
// usable: defaults fill in at NewSender.
type SenderConfig struct {
	// Heartbeat is how often an idle stream sends the primary's tip LSN
	// so replicas can keep their staleness measure fresh (default 500ms).
	Heartbeat time.Duration
	// WriteTimeout bounds each send to a replica (default 10s). A
	// replica too slow to drain the stream within it is disconnected —
	// it reconnects and resumes (or resyncs) — rather than ever holding
	// sender resources indefinitely; the primary's commit path is not
	// involved either way.
	WriteTimeout time.Duration
	// WrapConn, when set, wraps every accepted replica connection —
	// the chaos harness injects failpoint-driven flaky conns here.
	WrapConn func(net.Conn) net.Conn
}

// Sender streams the primary's WAL to connected replicas. It tails the
// WAL file up to the durable frontier — entirely off the commit path, so
// slow or dead replicas never block commits — tracks each replica's
// acknowledged LSN, and shed-and-resyncs any replica whose resume
// position predates the (rotated) log with a full snapshot.
type Sender struct {
	db  *engine.DB
	cfg SenderConfig

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{} // closed by Shutdown: stop accepting, start draining

	drainTo atomic.Uint64 // LSN replicas must ack before a draining stream closes
	drainCh chan struct{} // closed when drainTo is set

	mu       sync.Mutex
	replicas map[*replicaConn]struct{}

	recordsSent   *metrics.Counter
	snapshotsSent *metrics.Counter
	sendErrors    *metrics.Counter
}

// replicaConn is the sender's view of one connected replica.
type replicaConn struct {
	conn  net.Conn
	acked atomic.Uint64 // highest LSN the replica reported durably applied
	ackCh chan struct{} // non-blocking pulse on every ack (drain progress)
}

// NewSender builds a sender for db, which must be durable (have a WAL).
// Call Listen to start serving replicas.
func NewSender(db *engine.DB, cfg SenderConfig) (*Sender, error) {
	if db.WAL() == nil {
		return nil, errors.New("replication: sender requires a durable engine (-data-dir)")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	s := &Sender{
		db:       db,
		cfg:      cfg,
		closed:   make(chan struct{}),
		drainCh:  make(chan struct{}),
		replicas: make(map[*replicaConn]struct{}),
	}
	if reg := db.Metrics(); reg != nil {
		s.recordsSent = reg.Counter(metrics.NameReplRecordsSentTotal,
			"WAL records shipped to replicas.")
		s.snapshotsSent = reg.Counter(metrics.NameReplSnapshotsSentTotal,
			"Full snapshots shipped to resync replicas that fell behind a rotated WAL.")
		s.sendErrors = reg.Counter(metrics.NameReplSendErrorsTotal,
			"Replication sends that failed (timeout or connection loss); the replica reconnects.")
		reg.GaugeFunc(metrics.NameReplConnectedReplicas,
			"Replicas currently connected to the replication listener.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.replicas))
			})
		reg.GaugeFunc(metrics.NameReplAckedLSNMin,
			"Lowest LSN acknowledged as durably applied across connected replicas (0 with none connected).",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				var min uint64
				for rc := range s.replicas {
					if a := rc.acked.Load(); min == 0 || a < min {
						min = a
					}
				}
				return float64(min)
			})
	}
	return s, nil
}

// Listen binds addr (e.g. ":7071", or ":0" for an ephemeral port) and
// starts accepting replica connections. Returns the bound address.
func (s *Sender) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Sender) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		select {
		case <-s.closed:
			conn.Close()
			return
		default:
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve handles one replica for the life of its connection: handshake,
// then a send stream plus an ack-reading goroutine.
func (s *Sender) serve(conn net.Conn) {
	defer s.wg.Done()
	if s.cfg.WrapConn != nil {
		conn = s.cfg.WrapConn(conn)
	}
	defer conn.Close()

	mc := newMsgConn(conn)
	conn.SetReadDeadline(time.Now().Add(s.cfg.WriteTimeout))
	hello, err := mc.read()
	if err != nil || hello.Kind != msgHello {
		return
	}
	conn.SetReadDeadline(time.Time{})

	rc := &replicaConn{conn: conn, ackCh: make(chan struct{}, 1)}
	rc.acked.Store(hello.FromLSN)
	s.mu.Lock()
	s.replicas[rc] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.replicas, rc)
		s.mu.Unlock()
	}()

	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		for {
			m, err := mc.read()
			if err != nil {
				return
			}
			if m.Kind == msgAck {
				rc.acked.Store(m.LSN)
				select {
				case rc.ackCh <- struct{}{}:
				default:
				}
			}
		}
	}()

	s.stream(conn, mc, rc, hello.FromLSN, connDone)
}

// send writes m under the write deadline, counting a failure.
func (s *Sender) send(conn net.Conn, mc *msgConn, m *message) bool {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if err := mc.write(m); err != nil {
		if s.sendErrors != nil {
			s.sendErrors.Inc()
		}
		return false
	}
	return true
}

// sendSnapshot ships a checkpoint taken now and returns its LSN.
func (s *Sender) sendSnapshot(conn net.Conn, mc *msgConn) (uint64, bool) {
	var buf bytes.Buffer
	lsn, err := s.db.ReplicationSnapshot(&buf)
	if err != nil || !s.send(conn, mc, &message{Kind: msgSnapshot, LSN: lsn, TipLSN: lsn, Body: buf.Bytes()}) {
		return 0, false
	}
	if s.snapshotsSent != nil {
		s.snapshotsSent.Inc()
	}
	return lsn, true
}

// stream ships records from the replica's resume position to the durable
// frontier, then follows the frontier as it advances. Rotation (the
// checkpoint generation changing under the tail) reopens the file; a
// resume position the file no longer covers triggers a snapshot resync.
func (s *Sender) stream(conn net.Conn, mc *msgConn, rc *replicaConn, from uint64, connDone <-chan struct{}) {
	log := s.db.WAL()

	notify := make(chan struct{}, 1)
	log.SubscribeDurable(notify)
	defer log.UnsubscribeDurable(notify)
	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()

	last := from // highest LSN the replica is known to hold
	var tail *wal.TailReader
	defer func() {
		if tail != nil {
			tail.Close()
		}
	}()

	send := func(m *message) bool { return s.send(conn, mc, m) }
	resync := func() bool {
		lsn, ok := s.sendSnapshot(conn, mc)
		if ok {
			last = lsn
		}
		return ok
	}
	var gen uint64
	reopen := func(g uint64) bool {
		if tail != nil {
			tail.Close()
			tail = nil
		}
		t, err := wal.OpenTail(log.Path())
		if err != nil {
			return false
		}
		tail, gen = t, g
		// The file only holds records above its base; a replica below it
		// can't be caught up from the log alone.
		if last < log.BaseLSN() {
			return resync()
		}
		return true
	}

	_, g, _ := log.DurableFrontier()
	if !reopen(g) {
		return
	}
	draining := false
	drainCh := s.drainCh
	for {
		durable, g, dead := log.DurableFrontier()
		if dead {
			return
		}
		if g != gen {
			if !reopen(g) {
				return
			}
			continue
		}
		rec, err := tail.Next(durable)
		switch {
		case err == nil:
			if rec.LSN <= last {
				continue // replica already has it (resume overlap)
			}
			if rec.LSN != last+1 {
				// Gap: records between last and rec were rotated away
				// under us. Shed-and-resync rather than ship a hole.
				if !resync() {
					return
				}
				continue
			}
			if !send(&message{Kind: msgRecord, LSN: rec.LSN, TipLSN: log.LastLSN(), RecType: rec.Type, Body: rec.Data}) {
				return
			}
			if s.recordsSent != nil {
				s.recordsSent.Inc()
			}
			last = rec.LSN
		case errors.Is(err, io.EOF), errors.Is(err, wal.ErrIncompleteTail):
			// Caught up to the durable frontier (an incomplete tail frame
			// is a concurrent append whose fsync hasn't landed: not ours
			// to ship yet). A draining stream may now retire once the
			// replica has acked everything committed before shutdown.
			if draining && last >= s.drainTo.Load() && rc.acked.Load() >= s.drainTo.Load() {
				return
			}
			select {
			case <-notify: // durable frontier moved (or rotation/death)
			case <-rc.ackCh: // ack progress while draining
			case <-hb.C:
				if !send(&message{Kind: msgHeartbeat, TipLSN: log.LastLSN()}) {
					return
				}
			case <-connDone:
				return
			case <-drainCh:
				draining = true
				drainCh = nil // take this branch once; hb/ack pulses re-check
			}
		case errors.Is(err, wal.ErrRotated):
			continue // the frontier check above reopens on the next pass
		default:
			// Corrupt frame below the frontier or an I/O error: this
			// stream can't be trusted to continue. Drop the connection;
			// the replica reconnects and resumes or resyncs.
			if s.sendErrors != nil {
				s.sendErrors.Inc()
			}
			return
		}
	}
}

// Shutdown drains and stops the sender: no new replicas are accepted,
// and each connected stream keeps shipping until its replica has
// acknowledged everything the primary had committed when shutdown began
// — or until timeout (non-positive drains without bound), when remaining
// connections are severed (replicas resume from their own WALs on
// reconnect, so a forced cut loses nothing). Blocks until all streams
// are gone.
func (s *Sender) Shutdown(timeout time.Duration) error {
	select {
	case <-s.closed:
	default:
		s.drainTo.Store(s.db.ReplicationPosition())
		close(s.drainCh)
		close(s.closed)
		if s.ln != nil {
			s.ln.Close()
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
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
	}
	// Drain deadline passed: sever remaining streams.
	s.mu.Lock()
	for rc := range s.replicas {
		rc.conn.Close()
	}
	s.mu.Unlock()
	<-done
	return errors.New("replication: sender shutdown forced after drain timeout")
}
