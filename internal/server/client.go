package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"insightnotes/internal/types"
)

// Client is a minimal connection to an InsightNotes server. It is not safe
// for concurrent use; open one client per goroutine.
//
// All statement execution goes through Do, the single context-first entry
// point; behavior (tracing, parameter binding, retry schedules, mutation
// safety) is expressed as CallOptions.
type Client struct {
	addr string
	conn net.Conn
	r    *bufio.Scanner
	enc  *json.Encoder
	w    *bufio.Writer

	// stmtSeq numbers this client's auto-named prepared statements.
	stmtSeq int
}

// Dial connects to an InsightNotes server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	r := newFrameScanner(conn, defaultMaxFrameBytes)
	w := bufio.NewWriter(conn)
	return &Client{addr: addr, conn: conn, r: r, enc: json.NewEncoder(w), w: w}, nil
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
	switch {
	case co.mutation:
		return c.doMutation(ctx, req, co.attempts, co.backoff)
	case co.attempts > 1:
		return c.doRetry(ctx, req, co.attempts, co.backoff)
	default:
		return c.roundTrip(ctx, req)
	}
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

// doRetry retries statements shed with ErrOverloaded. The server's
// RetryAfter hint acts as a floor under the jittered backoff schedule, so
// clients back off at least as hard as the server asks while still
// desynchronizing their retries. A connection the server closed (e.g.
// refused at the -max-conns cap after its one structured answer) is
// redialed transparently between attempts. Transport failures retry too:
// without WithMutation the statement is assumed idempotent.
func (c *Client) doRetry(ctx context.Context, req Request, attempts int, b Backoff) (*Response, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		resp, err := c.roundTrip(ctx, req)
		switch {
		case err != nil:
			// Transport failure: the conn is dead. Redial before the
			// next attempt; keep the old error if redial also fails.
			lastErr = err
			if nc, derr := Dial(c.addr); derr == nil {
				if c.conn != nil {
					c.conn.Close()
				}
				*c = *nc
			}
		case errors.Is(resp.Err(), ErrOverloaded):
			lastErr = resp.Err()
			if i == attempts-1 {
				return resp, nil // caller sees the final structured shed
			}
			d := b.Delay(i)
			if hint := time.Duration(resp.RetryAfterMS) * time.Millisecond; d < hint {
				d = hint
			}
			if !sleep(ctx, d) {
				return nil, ctx.Err()
			}
			continue
		default:
			return resp, nil
		}
		if i < attempts-1 && !sleep(ctx, b.Delay(i)) {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("server: %d attempt(s) exhausted: %w", attempts, lastErr)
}

// doMutation sends one mutating statement with retry semantics safe for
// non-idempotent work: an attempt is retried only when the statement
// provably never entered the engine — the dial failed, or the server
// answered with a structured pre-engine shed (ErrOverloaded, issued
// before the execution slot). Once the request has gone onto the wire
// (fully or partially), any transport failure is terminal. Reads don't
// need this caution; plain Do / WithRetry resend freely.
func (c *Client) doMutation(ctx context.Context, req Request, attempts int, b Backoff) (*Response, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if c.conn == nil {
			// The previous attempt surrendered its connection before
			// sending; a failed dial is retryable for the same reason.
			nc, err := Dial(c.addr)
			if err != nil {
				lastErr = err
				if i < attempts-1 && !sleep(ctx, b.Delay(i)) {
					return nil, ctx.Err()
				}
				continue
			}
			*c = *nc
		}
		resp, err := c.roundTrip(ctx, req)
		switch {
		case err != nil:
			c.conn.Close()
			c.conn = nil
			return nil, fmt.Errorf("server: mutation fate unknown after send failure (not retried): %w", err)
		case errors.Is(resp.Err(), ErrOverloaded):
			// Shed before entering the engine, so resending is safe. The
			// server may close the connection after a connect-time
			// refusal; surrender it now so the next attempt redials
			// rather than writing into a dead stream (which would look
			// like an unknown fate).
			c.conn.Close()
			c.conn = nil
			lastErr = resp.Err()
			if i == attempts-1 {
				return resp, nil // caller sees the final structured shed
			}
			d := b.Delay(i)
			if hint := time.Duration(resp.RetryAfterMS) * time.Millisecond; d < hint {
				d = hint
			}
			if !sleep(ctx, d) {
				return nil, ctx.Err()
			}
		default:
			return resp, nil
		}
	}
	return nil, fmt.Errorf("server: %d attempt(s) exhausted: %w", attempts, lastErr)
}

// roundTrip performs one request/response exchange. The context's deadline
// is pushed down onto the connection, bounding the frame write as well as
// the response read — a full client-side send buffer can no longer park
// the caller past its deadline in Flush.
func (c *Client) roundTrip(ctx context.Context, req Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok && c.conn != nil {
		c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(&req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("server: connection closed")
	}
	var resp Response
	if err := json.Unmarshal(c.r.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("server: bad response: %w", err)
	}
	return &resp, nil
}

// Close closes the connection (a no-op after the connection was
// surrendered by a failed mutation attempt).
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
