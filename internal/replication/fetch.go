package replication

import (
	"fmt"
	"net"
	"time"
)

// DefaultFetchTimeout bounds one snapshot fetch end to end (dial, hello,
// snapshot transfer).
const DefaultFetchTimeout = 30 * time.Second

// FetchSnapshot dials a primary's replication listener, requests a
// one-shot snapshot (WantSnapshot hello), and returns the primary's
// checkpoint stream — exactly the bytes engine.InstallReplicaSnapshot
// accepts and the scrubber's repair path reads, both of which check its
// per-record CRCs and trailer. timeout <= 0 uses DefaultFetchTimeout.
func FetchSnapshot(addr string, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = DefaultFetchTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("replication: snapshot fetch dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	mc := newMsgConn(conn)
	if err := mc.write(&message{Kind: msgHello, WantSnapshot: true}); err != nil {
		return nil, fmt.Errorf("replication: snapshot fetch hello: %w", err)
	}
	m, err := mc.read()
	if err != nil {
		return nil, fmt.Errorf("replication: snapshot fetch read: %w", err)
	}
	if m.Kind != msgSnapshot {
		return nil, fmt.Errorf("replication: snapshot fetch got message kind 0x%02x, want 0x%02x", m.Kind, msgSnapshot)
	}
	return m.Body, nil
}

// SnapshotFetcher adapts FetchSnapshot to the engine's repair-source
// signature (engine.DB.SetRepairSource): a closure fetching from addr.
func SnapshotFetcher(addr string, timeout time.Duration) func() ([]byte, error) {
	return func() ([]byte, error) { return FetchSnapshot(addr, timeout) }
}
