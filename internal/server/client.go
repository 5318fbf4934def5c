package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/codec"
	"insightnotes/internal/types"
)

// Client is a minimal connection to an InsightNotes server. It is not safe
// for concurrent use; open one client per goroutine.
//
// All statement execution goes through Do, the single context-first entry
// point; behavior (tracing, parameter binding, retry schedules, mutation
// safety) is expressed as CallOptions.
//
// A transport failure ends the connection: the client surrenders it, and
// later calls fail without sending until WithRetry or WithMutation redials.
type Client struct {
	addr string
	// mu guards conn: Close may run on another goroutine to unblock a
	// call in flight.
	mu   sync.Mutex
	conn net.Conn // nil once surrendered
	in   *codec.FrameReader
	out  []byte // request frame buffer

	// stmtSeq numbers this client's auto-named prepared statements.
	stmtSeq int
}

// ErrConnClosed is returned, without sending, by a call on a Client whose
// connection was surrendered after a failed exchange or closed by Close.
var ErrConnClosed = errors.New("server: client connection closed")

// Dial connects to an InsightNotes server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return clientOver(conn, addr), nil
}

// clientOver builds a Client on an open connection.
func clientOver(conn net.Conn, addr string) *Client {
	return &Client{addr: addr, conn: conn, in: codec.NewFrameReader(conn, defaultMaxFrameBytes)}
}

// redial replaces the client's connection with a fresh one, keeping the
// prepared-statement sequence; on failure the client is unchanged.
func (c *Client) redial() error {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.swapConn(nc)
	c.in = codec.NewFrameReader(nc, defaultMaxFrameBytes)
	return nil
}

// surrender closes the connection and forgets it.
func (c *Client) surrender() { c.swapConn(nil) }

// swapConn installs nc (nil: none) and closes the connection it replaces.
func (c *Client) swapConn(nc net.Conn) error {
	c.mu.Lock()
	old := c.conn
	c.conn = nc
	c.mu.Unlock()
	if old == nil {
		return nil
	}
	return old.Close()
}

// currentConn returns the connection, nil once surrendered or closed.
func (c *Client) currentConn() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// CallOption configures one Do call.
type CallOption func(*callOptions)

type callOptions struct {
	args     []types.Value
	trace    bool
	attempts int
	backoff  Backoff
	mutation bool
}

// WithArgs binds positional parameter values to the statement's $n
// placeholders ($1 is the first argument). The server binds them before
// execution, so values never need client-side SQL-literal rendering.
func WithArgs(args ...types.Value) CallOption {
	return func(co *callOptions) { co.args = args }
}

// WithTrace requests the under-the-hood operator log for SELECTs.
func WithTrace() CallOption {
	return func(co *callOptions) { co.trace = true }
}

// WithRetry retries statements the server sheds with ErrOverloaded, up to
// attempts tries under the backoff schedule (the server's RetryAfter hint
// acts as a floor under each delay). Without WithMutation, transport
// failures also retry — reads are idempotent, resending is safe.
func WithRetry(attempts int, b Backoff) CallOption {
	return func(co *callOptions) {
		co.attempts = attempts
		co.backoff = b
	}
}

// WithMutation marks the statement non-idempotent: an attempt is retried
// only when it provably never entered the engine (a failed dial, or a
// structured pre-engine shed). Once bytes hit the wire, any transport
// failure is terminal — the statement's fate is unknown, and blindly
// resending could apply it twice.
func WithMutation() CallOption {
	return func(co *callOptions) { co.mutation = true }
}

// Do sends one statement and waits for the response. The context bounds
// the whole exchange, including the frame write and the response read.
// Options add tracing (WithTrace), positional parameters (WithArgs),
// retry under overload (WithRetry), and mutation-safe retry semantics
// (WithMutation).
//
// A nil error means the exchange completed; the response may still carry
// a statement failure — classify it with errors.Is over resp.Err().
func (c *Client) Do(ctx context.Context, stmt string, opts ...CallOption) (*Response, error) {
	var co callOptions
	for _, opt := range opts {
		opt(&co)
	}
	req := Request{Stmt: stmt, Trace: co.trace, Args: co.args}
	if !co.mutation && co.attempts <= 1 {
		return c.roundTrip(ctx, req)
	}
	return c.do(ctx, req, co)
}

// stmtSeed desynchronizes auto-generated prepared-statement names across
// clients in one process; the registry is engine-global, so two clients
// preparing concurrently must not both claim "s1".
var stmtSeed atomic.Int64

// Stmt is a prepared statement handle: the template was parsed, validated,
// and its plan cached server-side by Client.Prepare; Exec binds arguments
// to its $n placeholders by name, without resending the SQL text.
// A Stmt is bound to the Client that prepared it (the registry is shared
// across connections to one engine, but the handle is not safe for
// concurrent use, like the Client itself).
type Stmt struct {
	c    *Client
	name string
	text string
}

// Prepare registers sqlText as a prepared statement under a generated
// name and returns its handle. The statement may use $1..$n placeholders;
// Stmt.Exec supplies the values. Deallocate the handle with Stmt.Close
// when done.
func (c *Client) Prepare(ctx context.Context, sqlText string) (*Stmt, error) {
	// The registry is engine-global, so a generated name can collide with
	// another client's (or a REPL user's PREPARE). Walk forward past
	// collisions instead of failing a retriable situation.
	for tries := 0; tries < 100; tries++ {
		c.stmtSeq++
		name := fmt.Sprintf("s%d_%d", stmtSeed.Add(1), c.stmtSeq)
		resp, err := c.roundTrip(ctx, Request{Kind: "prepare", Name: name, Stmt: sqlText})
		if err != nil {
			return nil, err
		}
		if !resp.OK {
			if strings.Contains(resp.Error, "already exists") {
				continue
			}
			return nil, resp.Err()
		}
		return &Stmt{c: c, name: name, text: sqlText}, nil
	}
	return nil, fmt.Errorf("server: could not find a free prepared-statement name")
}

// Name returns the server-side registry name the statement was prepared
// under (usable directly in EXECUTE/DEALLOCATE statements).
func (st *Stmt) Name() string { return st.name }

// Text returns the SQL template the statement was prepared from.
func (st *Stmt) Text() string { return st.text }

// Exec executes the prepared statement with args bound to $1..$n. The
// response may carry a statement failure; classify with resp.Err().
func (st *Stmt) Exec(ctx context.Context, args ...types.Value) (*Response, error) {
	return st.c.roundTrip(ctx, Request{Kind: "execute", Name: st.name, Args: args})
}

// Close deallocates the statement server-side. The handle is unusable
// afterwards.
func (st *Stmt) Close(ctx context.Context) error {
	resp, err := st.c.roundTrip(ctx, Request{Kind: "deallocate", Name: st.name})
	if err != nil {
		return err
	}
	return resp.Err()
}

// do runs req for up to attempts tries under the backoff schedule,
// retrying statements shed with ErrOverloaded. The server's RetryAfter
// hint acts as a floor under each jittered delay, so clients back off at
// least as hard as the server asks while still desynchronizing their
// retries. A missing connection (surrendered after a failed exchange) is
// redialed at the top of each attempt; a failed dial sent nothing and is
// retried. A transport failure after the send is retried only without
// mutation: a mutation's fate is then unknown, and resending could apply
// it twice. A mutation's shed also surrenders the connection, which the
// server may close after a connect-time refusal, so the next attempt
// redials rather than writing into a dead stream.
func (c *Client) do(ctx context.Context, req Request, co callOptions) (*Response, error) {
	attempts := max(co.attempts, 1)
	var lastErr error
	for i := 0; i < attempts; i++ {
		var resp *Response
		var err error
		if c.currentConn() == nil {
			err = c.redial()
		}
		if err == nil {
			resp, err = c.roundTrip(ctx, req)
			if err != nil && co.mutation {
				return nil, fmt.Errorf("server: mutation fate unknown after send failure (not retried): %w", err)
			}
		}
		var hint time.Duration
		switch {
		case err != nil:
			lastErr = err
		case errors.Is(resp.Err(), ErrOverloaded):
			if co.mutation {
				c.surrender()
			}
			lastErr = resp.Err()
			if i == attempts-1 {
				return resp, nil // caller sees the final structured shed
			}
			hint = time.Duration(resp.RetryAfterMS) * time.Millisecond
		default:
			return resp, nil
		}
		if i < attempts-1 && !sleep(ctx, max(co.backoff.Delay(i), hint)) {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("server: %d attempt(s) exhausted: %w", attempts, lastErr)
}

// roundTrip performs one request/response exchange. The context's deadline
// is pushed down onto the connection, bounding the frame write as well as
// the response read — a full client-side send buffer can no longer park
// the caller past its deadline in a write. Any transport failure, a
// timeout included, surrenders the connection: the stream may still hold
// the answer to this request, and a later exchange must never read it as
// its own.
func (c *Client) roundTrip(ctx context.Context, req Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn := c.currentConn()
	if conn == nil {
		return nil, ErrConnClosed
	}
	resp, err := c.exchange(ctx, conn, &req)
	if err != nil {
		c.surrender()
		return nil, err
	}
	return resp, nil
}

func (c *Client) exchange(ctx context.Context, conn net.Conn, req *Request) (*Response, error) {
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
		defer conn.SetDeadline(time.Time{})
	}
	c.out = appendRequestFrame(c.out, req)
	if _, err := conn.Write(c.out); err != nil {
		return nil, err
	}
	kind, body, err := c.in.Next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("server: connection closed")
		}
		return nil, err
	}
	if kind != kindResponse {
		return nil, fmt.Errorf("server: bad response: frame version/kind 0x%02x", kind)
	}
	resp, _, err := decodeResponse(body)
	if err != nil {
		return nil, fmt.Errorf("server: bad response: %w", err)
	}
	return resp, nil
}

// Close closes the connection (a no-op after the connection was
// surrendered by a failed exchange). It may be called while a call is in
// flight on another goroutine: that call fails.
func (c *Client) Close() error { return c.swapConn(nil) }
