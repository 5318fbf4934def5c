package replication

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"insightnotes/internal/difftest"
	"insightnotes/internal/engine"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/server"
)

// TestReplicationSoak is the end-to-end chaos soak of the replication
// subsystem: a primary with an aggressive checkpoint cadence (so the WAL
// rotates under the stream), two replicas serving reads behind staleness
// bounds, and a live write workload — during which one replica is killed
// mid-apply by a crash failpoint and restarted from its data directory.
//
// Asserted throughout:
//   - read-your-writes on the primary for every probe,
//   - the surviving replica keeps serving non-stale reads during the
//     outage,
//   - the restarted replica resumes from its last durable LSN (or
//     resyncs via snapshot if the log rotated past it) and converges,
//   - final states are the same difftest.State across all three engines,
//   - once the primary's sender is gone, replicas shed reads with the
//     structured STALE error and the routed client fails over.
func TestReplicationSoak(t *testing.T) {
	const maxStaleness = 800 * time.Millisecond

	// Primary: small checkpoint threshold so the log rotates mid-soak.
	pdir := t.TempDir()
	pdb, _, err := engine.OpenDurable(
		engine.Config{CacheDir: t.TempDir()},
		engine.DurabilityOptions{Dir: pdir, AutoCheckpointBytes: 8 << 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	sender, err := NewSender(pdb, SenderConfig{Heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	repAddr, err := sender.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Shutdown(2 * time.Second)
	psrv := server.New(pdb)
	paddr, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()

	// Two replicas, each with its own engine, receiver, and server.
	type replica struct {
		dir  string
		db   *engine.DB
		rcv  *Receiver
		srv  *server.Server
		addr string
	}
	newReplica := func(dir string) *replica {
		t.Helper()
		db := openDB(t, dir, -1)
		rcv, err := NewReceiver(db, ReceiverConfig{
			PrimaryAddr: repAddr, MaxStaleness: maxStaleness, Backoff: fastBackoff,
		})
		if err != nil {
			t.Fatal(err)
		}
		rcv.Start()
		srv := server.New(db)
		srv.Replica = rcv
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return &replica{dir: dir, db: db, rcv: rcv, srv: srv, addr: addr}
	}
	stopReplica := func(r *replica) {
		r.srv.Close()
		r.rcv.Shutdown(2 * time.Second)
		r.db.Close()
	}
	replicas := []*replica{newReplica(t.TempDir()), newReplica(t.TempDir())}
	defer func() {
		for _, r := range replicas {
			stopReplica(r)
		}
	}()

	pc, err := server.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	mustOK := func(stmt string) *server.Response {
		t.Helper()
		resp, err := pc.Do(context.Background(), stmt)
		if err != nil {
			t.Fatalf("primary Exec(%q): %v", stmt, err)
		}
		if !resp.OK {
			t.Fatalf("primary Exec(%q): %s", stmt, resp.Error)
		}
		return resp
	}
	wl := difftest.NewStream(5400)
	// newest is the newest row still in the table.
	newest := func() int { live := wl.Live(); return live[len(live)-1] }
	// writeBatch runs n statements of the shared stream and asserts
	// read-your-writes on the primary for the newest row.
	writeBatch := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			mustOK(wl.Next())
		}
		resp := mustOK(fmt.Sprintf("SELECT id FROM birds WHERE id = %d", newest()))
		if len(resp.Rows) != 1 {
			t.Fatalf("read-your-writes violated: id %d missing after insert", newest())
		}
	}

	for _, stmt := range wl.Scaffold() {
		mustOK(stmt)
	}

	// Phase 1: steady streaming; both replicas converge.
	writeBatch(60)
	p := &primaryStack{db: pdb, sender: sender, addr: repAddr}
	for _, r := range replicas {
		waitCaughtUp(t, p, r.rcv)
		difftest.SameState(t, pdb, r.db)
	}

	// Phase 2: kill exactly one replica mid-apply. The failpoint action
	// crashes a single evaluation, so whichever receiver hits it dies
	// and the other keeps streaming.
	var hits atomic.Int64
	failpoint.Enable(failpoint.ReplicationApply, func() error {
		if hits.Add(1) == 5 {
			return failpoint.CrashError(failpoint.ReplicationApply)
		}
		return nil
	})
	defer failpoint.Reset()
	writeBatch(40)
	var dead, survivor *replica
	deadline := time.Now().Add(10 * time.Second)
	for dead == nil {
		for i, r := range replicas {
			if r.rcv.Dead() {
				dead, survivor = r, replicas[1-i]
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("crash failpoint never killed a replica")
		}
		time.Sleep(2 * time.Millisecond)
	}
	failpoint.Disable(failpoint.ReplicationApply)
	deadDir := dead.dir
	stopReplica(dead)

	// Outage: the primary keeps committing (enough to rotate the WAL
	// past the dead replica's position) with read-your-writes intact,
	// and the survivor keeps serving fresh reads.
	writeBatch(200)
	waitCaughtUp(t, p, survivor.rcv)
	sc, err := server.Dial(survivor.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	resp, err := sc.Do(context.Background(), fmt.Sprintf("SELECT id FROM birds WHERE id = %d", newest()))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("survivor shed a read during the outage: %+v", resp)
	}
	if resp.StatsDetail == nil || !resp.StatsDetail.Replica {
		t.Fatalf("survivor response missing replica staleness stamp: %+v", resp.StatsDetail)
	}

	// Phase 3: restart the killed replica from its directory. It must
	// resume from what it made durable before dying — not from zero —
	// and then converge (by stream resume or snapshot resync if the
	// primary rotated past it; both paths are legal here).
	restarted := newReplica(deadDir)
	replicas = []*replica{survivor, restarted}
	if pos := restarted.db.ReplicationPosition(); pos == 0 {
		t.Fatal("restarted replica lost its durable position")
	}
	writeBatch(20)
	for _, r := range replicas {
		waitCaughtUp(t, p, r.rcv)
	}

	// Phase 4: quiesce and compare record for record.
	for _, r := range replicas {
		difftest.SameState(t, pdb, r.db)
	}

	// Phase 5: sever replication; replicas cross the staleness bound and
	// shed with STALE, and the routed client fails over to the primary.
	if err := sender.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := sc.Do(context.Background(), "SELECT id FROM birds WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		// The routed read below may land on either replica, and each ages
		// from its own last heartbeat: wait for both to be past the bound.
		_, _, otherStale := restarted.rcv.Staleness()
		if resp.Code == server.CodeStale && otherStale {
			if resp.RetryAfterMS <= 0 {
				t.Fatalf("STALE shed without retry hint: %+v", resp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never crossed the staleness bound after the link died")
		}
		time.Sleep(25 * time.Millisecond)
	}
	routed := server.NewRoutedClient(server.Topology{
		Primary:  paddr,
		Replicas: []string{replicas[0].addr, replicas[1].addr},
	})
	defer routed.Close()
	resp, err = routed.ExecRead(context.Background(), fmt.Sprintf("SELECT id FROM birds WHERE id = %d", newest()), 2)
	if err != nil {
		t.Fatalf("routed read should fail over past stale replicas: %v", err)
	}
	if !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("routed read after failover = %+v", resp)
	}
	if resp.StatsDetail != nil && resp.StatsDetail.Replica {
		t.Fatal("routed read was served by a stale replica")
	}
	// And writes still land on the primary through the routed client.
	wresp, err := routed.ExecWrite(context.Background(), wl.Insert(), 2)
	if err != nil || !wresp.OK {
		t.Fatalf("routed write = %+v, %v", wresp, err)
	}
}
