package replication

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/server"
	"insightnotes/internal/wal"
)

// fastBackoff keeps test reconnect loops tight.
var fastBackoff = server.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

// openDB opens a durable engine at dir. autoCkpt follows
// engine.DurabilityOptions semantics (-1 disables auto-checkpointing).
func openDB(t *testing.T, dir string, autoCkpt int64) *engine.DB {
	t.Helper()
	db, _, err := engine.OpenDurable(
		engine.Config{CacheDir: t.TempDir()},
		engine.DurabilityOptions{Dir: dir, AutoCheckpointBytes: autoCkpt},
	)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return db
}

// primaryStack is a durable engine with a replication sender listening.
// The test cleanup closes whichever incarnation is current, so a test may
// restart the stack in place.
type primaryStack struct {
	db     *engine.DB
	sender *Sender
	addr   string
}

func startPrimary(t *testing.T, dir string, autoCkpt int64, cfg SenderConfig) *primaryStack {
	t.Helper()
	db := openDB(t, dir, autoCkpt)
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 25 * time.Millisecond
	}
	s, err := NewSender(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &primaryStack{db: db, sender: s, addr: addr}
	t.Cleanup(func() {
		p.sender.Shutdown(2 * time.Second)
		p.db.Close()
	})
	return p
}

// replicaStack is a durable engine following a primary.
type replicaStack struct {
	db  *engine.DB
	rcv *Receiver
}

func startReplica(t *testing.T, dir, primaryAddr string, cfg ReceiverConfig) *replicaStack {
	t.Helper()
	db := openDB(t, dir, -1)
	cfg.PrimaryAddr = primaryAddr
	if cfg.Backoff.Base == 0 {
		cfg.Backoff = fastBackoff
	}
	r, err := NewReceiver(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	rs := &replicaStack{db: db, rcv: r}
	t.Cleanup(func() {
		rs.rcv.Shutdown(2 * time.Second)
		rs.db.Close()
	})
	return rs
}

func mustExec(t *testing.T, db *engine.DB, stmt string) {
	t.Helper()
	if _, err := db.Exec(context.Background(), stmt); err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
}

// seedSchema installs the demo-style schema used across these tests.
func seedSchema(t *testing.T, db *engine.DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE birds (id INT, name TEXT)")
	mustExec(t, db, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')")
	mustExec(t, db, "TRAIN SUMMARY C ('feeding foraging stonewort', 'Behavior'), ('photo camera record', 'Other')")
	mustExec(t, db, "LINK SUMMARY C TO birds")
}

// waitCaughtUp blocks until the replica has applied the primary's
// current position (taken once, at call time).
func waitCaughtUp(t *testing.T, p *primaryStack, r *Receiver) {
	t.Helper()
	target := p.db.ReplicationPosition()
	deadline := time.Now().Add(10 * time.Second)
	for r.Applied() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at lsn %d, want %d", r.Applied(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stateOf serializes a database's full logical state deterministically.
func stateOf(t *testing.T, db *engine.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertConverged compares two databases record for record: the full
// serialized state (tables, rows, annotations, instances, links) plus
// the maintained summary rendering of a probe row.
func assertConverged(t *testing.T, primary, replica *engine.DB) {
	t.Helper()
	ps, rs := stateOf(t, primary), stateOf(t, replica)
	if !bytes.Equal(ps, rs) {
		t.Fatalf("replica diverged from primary:\nprimary: %s\nreplica: %s", ps, rs)
	}
	penv, renv := primary.EnvelopeFor("birds", 1), replica.EnvelopeFor("birds", 1)
	switch {
	case penv == nil && renv == nil:
	case penv == nil || renv == nil:
		t.Fatalf("summary envelope presence differs: primary=%v replica=%v", penv != nil, renv != nil)
	default:
		if p, r := penv.Object("C").Render(), renv.Object("C").Render(); p != r {
			t.Fatalf("summary rendering diverged: primary=%q replica=%q", p, r)
		}
	}
}

func TestReplicationStreamsCommits(t *testing.T) {
	p := startPrimary(t, t.TempDir(), -1, SenderConfig{})
	r := startReplica(t, t.TempDir(), p.addr, ReceiverConfig{})

	seedSchema(t, p.db)
	mustExec(t, p.db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	mustExec(t, p.db, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")
	// A statement that fails ships nothing, so it must leave nothing behind
	// on the primary either: rows of a multi-row INSERT included.
	if _, err := p.db.Exec(context.Background(), "INSERT INTO birds VALUES (3, 'Tundra Swan'), ('oops', 'x')"); err == nil {
		t.Fatal("malformed INSERT succeeded")
	}
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)

	// The stream is continuous: later commits flow without reconnecting.
	mustExec(t, p.db, "UPDATE birds SET name = 'Anser cygnoides' WHERE id = 1")
	mustExec(t, p.db, "ADD ANNOTATION 'photo in repository' ON birds WHERE id = 2")
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)

	if lagLSN, _, stale := r.rcv.Staleness(); lagLSN != 0 || stale {
		t.Fatalf("caught-up replica reports lag %d stale=%v", lagLSN, stale)
	}
}

func TestReplicaResumesFromDurableLSNAfterRestart(t *testing.T) {
	p := startPrimary(t, t.TempDir(), -1, SenderConfig{})
	rdir := t.TempDir()

	seedSchema(t, p.db)
	mustExec(t, p.db, "INSERT INTO birds VALUES (1, 'Swan Goose')")

	// First incarnation: catch up, then stop cleanly.
	rdb := openDB(t, rdir, -1)
	rcv, err := NewReceiver(rdb, ReceiverConfig{PrimaryAddr: p.addr, Backoff: fastBackoff})
	if err != nil {
		t.Fatal(err)
	}
	rcv.Start()
	waitCaughtUp(t, p, rcv)
	resumeAt := rcv.Applied()
	if err := rcv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	rdb.Close()

	// Primary keeps committing while the replica is down.
	mustExec(t, p.db, "INSERT INTO birds VALUES (2, 'Mute Swan')")
	mustExec(t, p.db, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")

	// Second incarnation reopens the same dir and resumes at the durable
	// position — no records reapplied, none skipped. The position is read
	// before the receiver starts, which would move it.
	rdb = openDB(t, rdir, -1)
	if got := rdb.ReplicationPosition(); got != resumeAt {
		t.Fatalf("restarted replica resumes at lsn %d, want %d", got, resumeAt)
	}
	rcv, err = NewReceiver(rdb, ReceiverConfig{PrimaryAddr: p.addr, Backoff: fastBackoff})
	if err != nil {
		t.Fatal(err)
	}
	rcv.Start()
	defer rdb.Close()
	defer rcv.Shutdown(2 * time.Second)
	waitCaughtUp(t, p, rcv)
	assertConverged(t, p.db, rdb)
}

// TestReplicaCrashMidApplyResumes mirrors TestCrashRecovery across the
// replication link: a crash failpoint kills the replica mid-batch, and a
// reopened replica must resume from its last durable LSN with no
// divergence.
func TestReplicaCrashMidApplyResumes(t *testing.T) {
	// fp/replication/apply fires per record, fp/replication/ack per
	// flushed batch; pick thresholds both can reach.
	for point, after := range map[string]int{failpoint.ReplicationApply: 6, failpoint.ReplicationAck: 1} {
		t.Run(filepath.Base(point), func(t *testing.T) {
			defer failpoint.Reset()
			p := startPrimary(t, t.TempDir(), -1, SenderConfig{})
			rdir := t.TempDir()

			seedSchema(t, p.db)
			rdb := openDB(t, rdir, -1)
			rcv, err := NewReceiver(rdb, ReceiverConfig{PrimaryAddr: p.addr, Backoff: fastBackoff, BatchMax: 2})
			if err != nil {
				t.Fatal(err)
			}
			failpoint.EnableAfter(point, after, failpoint.CrashError(point))
			rcv.Start()
			mustExec(t, p.db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
			mustExec(t, p.db, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")
			mustExec(t, p.db, "UPDATE birds SET name = 'Anser cygnoides' WHERE id = 1")

			deadline := time.Now().Add(10 * time.Second)
			for !rcv.Dead() {
				if time.Now().After(deadline) {
					t.Fatal("crash failpoint never fired")
				}
				time.Sleep(5 * time.Millisecond)
			}
			rcv.Shutdown(2 * time.Second)
			rdb.Close()
			failpoint.Disable(point)

			r2 := startReplica(t, rdir, p.addr, ReceiverConfig{})
			waitCaughtUp(t, p, r2.rcv)
			assertConverged(t, p.db, r2.db)
		})
	}
}

// TestReplicaResyncsAfterRotation covers shed-and-resync: a replica
// whose resume position predates the primary's rotated WAL gets a full
// snapshot instead of a record stream it can no longer follow.
func TestReplicaResyncsAfterRotation(t *testing.T) {
	p := startPrimary(t, t.TempDir(), -1, SenderConfig{})
	seedSchema(t, p.db)
	mustExec(t, p.db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	mustExec(t, p.db, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")
	// Rotate: every record so far is truncated into the snapshot, so a
	// replica starting from LSN 0 cannot be served from the log.
	if _, err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p.db, "INSERT INTO birds VALUES (3, 'Whooper Swan')")

	r := startReplica(t, t.TempDir(), p.addr, ReceiverConfig{})
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)

	// The replica follows rotations mid-stream too: a checkpoint while
	// connected reopens the tail without a resync (it is caught up).
	mustExec(t, p.db, "INSERT INTO birds VALUES (4, 'Trumpeter Swan')")
	if _, err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p.db, "UPDATE birds SET name = 'Cygnus cygnus' WHERE id = 3")
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)
}

// TestReplicationSurvivesFlakyLink runs the stream over connections that
// chunk writes and drop mid-frame after a byte budget, in both
// directions: the replica must reconnect, resume, and converge.
func TestReplicationSurvivesFlakyLink(t *testing.T) {
	p := startPrimary(t, t.TempDir(), -1, SenderConfig{
		WrapConn: func(c net.Conn) net.Conn {
			return &failpoint.FlakyConn{Conn: c, WriteChunk: 7, DropAfter: 4096}
		},
	})
	r := startReplica(t, t.TempDir(), p.addr, ReceiverConfig{
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &failpoint.FlakyConn{Conn: c, WriteChunk: 5, DropAfter: 8192}, nil
		},
	})

	seedSchema(t, p.db)
	for i := 0; i < 40; i++ {
		mustExec(t, p.db, "INSERT INTO birds VALUES (1, 'Swan Goose')")
	}
	mustExec(t, p.db, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)
}

// TestSenderShutdownDrainsAcks is the graceful-drain regression test:
// Shutdown must keep streaming until connected replicas have durably
// acknowledged everything committed before shutdown, and force-close
// only after the drain timeout.
func TestSenderShutdownDrainsAcks(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir, -1)
	defer db.Close()
	s, err := NewSender(db, SenderConfig{Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	seedSchema(t, db)
	mustExec(t, db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	target := db.ReplicationPosition()

	// A slow replica: reads from the primary dribble in, so at shutdown
	// time it has not acked everything yet.
	r := startReplica(t, t.TempDir(), addr, ReceiverConfig{
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &failpoint.FlakyConn{Conn: c, ReadDelay: 3 * time.Millisecond}, nil
		},
	})
	// Wait for the session to be established, not for catch-up.
	deadline := time.Now().Add(5 * time.Second)
	for r.rcv.Applied() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica never connected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	if got := r.rcv.Applied(); got < target {
		t.Fatalf("shutdown returned with replica at lsn %d, want >= %d (drain must wait for acks)", got, target)
	}

	// Forced path: a sender with a replica that cannot drain in time
	// reports the forced close instead of hanging.
	db2 := openDB(t, t.TempDir(), -1)
	defer db2.Close()
	s2, err := NewSender(db2, SenderConfig{Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seedSchema(t, db2)
	conn, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A raw hello with no acks ever: the drain cannot complete.
	if _, err := conn.Write(appendMessage(nil, &message{Kind: msgHello})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the stream register
	if err := s2.Shutdown(200 * time.Millisecond); err == nil {
		t.Fatal("shutdown with a never-acking replica should report the forced close")
	}
}

// TestStaleReplicaShedsReads drives the staleness bound end to end: a
// replica cut off from its primary crosses -max-staleness and its server
// sheds reads with the structured STALE error, while the routed client
// fails over to the primary.
func TestStaleReplicaShedsReads(t *testing.T) {
	p := startPrimary(t, t.TempDir(), -1, SenderConfig{Heartbeat: 20 * time.Millisecond})
	psrv := server.New(p.db)
	paddr, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { psrv.Close() })

	r := startReplica(t, t.TempDir(), p.addr, ReceiverConfig{MaxStaleness: 250 * time.Millisecond})
	rsrv := server.New(r.db)
	rsrv.Replica = r.rcv
	raddr, err := rsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Close() })

	seedSchema(t, p.db)
	mustExec(t, p.db, "INSERT INTO birds VALUES (1, 'Swan Goose')")
	waitCaughtUp(t, p, r.rcv)

	rc, err := server.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Fresh replica serves reads, stamped with the staleness bound.
	resp, err := rc.Do(context.Background(), "SELECT id, name FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("replica read = %+v", resp)
	}
	if resp.StatsDetail == nil || !resp.StatsDetail.Replica {
		t.Fatalf("replica response missing staleness stamp: %+v", resp.StatsDetail)
	}

	// Mutations never run on a replica.
	resp, err = rc.Do(context.Background(), "INSERT INTO birds VALUES (9, 'Impostor')")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != server.CodeReadOnly {
		t.Fatalf("replica mutation = %+v, want code %s", resp, server.CodeReadOnly)
	}

	// Sever the primary's sender: heartbeats stop, the staleness clock
	// runs past the bound, and reads shed with STALE.
	if err := p.sender.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = rc.Do(context.Background(), "SELECT id FROM birds")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code == server.CodeStale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never went stale: %+v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp.RetryAfterMS <= 0 {
		t.Fatalf("STALE shed without a retry hint: %+v", resp)
	}

	// Replica-aware failover: the routed client prefers the replica,
	// sees the shed, and lands the read on the primary.
	routed := server.NewRoutedClient(server.Topology{Primary: paddr, Replicas: []string{raddr}})
	defer routed.Close()
	resp, err = routed.ExecRead(context.Background(), "SELECT id, name FROM birds", 2)
	if err != nil {
		t.Fatalf("routed read should fail over to the primary: %v", err)
	}
	if !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("routed read = %+v", resp)
	}
	if resp.StatsDetail != nil && resp.StatsDetail.Replica {
		t.Fatal("routed read was served by the stale replica")
	}
}

// TestTailIncompleteFrameRetries exercises the sender-facing contract of
// the hardened tail reader against a live log: a partially synced frame
// is reported retryable and the sender-side loop semantics (skip, wait)
// see the completed record on the next durable notification.
func TestSenderSkipsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir, -1)
	defer db.Close()
	seedSchema(t, db)

	tr, err := wal.OpenTail(db.WAL().Path())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	durable, _, _ := db.WAL().DurableFrontier()
	n := 0
	for {
		_, err := tr.Next(durable)
		if err != nil {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("tail read %d durable records, want 4 (seed schema)", n)
	}
}
