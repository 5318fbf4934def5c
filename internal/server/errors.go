package server

import (
	"errors"
	"fmt"
	"time"
)

// Typed sentinel errors for the machine-readable response codes. Clients
// classify failures with errors.Is against Response.Err() instead of
// string-matching Response.Code:
//
//	resp, err := c.Do(ctx, stmt)
//	if err == nil && errors.Is(resp.Err(), server.ErrOverloaded) { back off }
//
// The wire format is unchanged — codes still travel as strings — these
// sentinels are the client-side vocabulary layered over them.
var (
	// ErrOverloaded: the statement was shed before entering the engine
	// (admission queue full or timed out, or the connection cap). Always
	// safe to retry, including mutations; RetryAfter carries the server's
	// backoff hint.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrStale: a replica refused the read because its staleness bound is
	// exceeded. Retry against another endpoint or the primary.
	ErrStale = errors.New("server: replica too stale")
	// ErrReadOnly: a replica refused a mutation (or an EXECUTE of a
	// mutating prepared statement). Route it to the primary.
	ErrReadOnly = errors.New("server: replica is read-only")
	// ErrCorrupt: the statement touched a quarantined or checksum-failed
	// page. Not retryable here; the page stays quarantined until a restart
	// of the node rebuilds its page file.
	ErrCorrupt = errors.New("server: data corrupt")
)

// sentinelFor maps a wire code to its sentinel (nil for codes without one,
// including plain statement errors with no code at all).
func sentinelFor(code string) error {
	switch code {
	case CodeOverloaded:
		return ErrOverloaded
	case CodeStale:
		return ErrStale
	case CodeReadOnly:
		return ErrReadOnly
	case CodeCorrupt:
		return ErrCorrupt
	default:
		return nil
	}
}

// ResponseError is a failed Response as an error value. Unwrap exposes the
// matching sentinel so errors.Is(err, ErrOverloaded) etc. work through any
// amount of fmt.Errorf("%w") wrapping the caller adds.
type ResponseError struct {
	// Code is the machine-readable wire code ("" for plain statement
	// errors).
	Code string
	// Message is the server's human-readable error text.
	Message string
	// RetryAfter is the server's backoff hint (zero when absent). Honor it
	// as a floor under any client-side backoff schedule.
	RetryAfter time.Duration
}

func (e *ResponseError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server: %s (%s)", e.Message, e.Code)
	}
	return fmt.Sprintf("server: %s", e.Message)
}

// Unwrap returns the typed sentinel for the code, or nil when there is
// none (errors.Is then matches only the *ResponseError itself).
func (e *ResponseError) Unwrap() error { return sentinelFor(e.Code) }

// Err converts a failed response into a typed error; it returns nil for a
// successful one. The returned *ResponseError unwraps to the matching
// sentinel (ErrOverloaded, ErrStale, ErrReadOnly, ErrCorrupt), so retry
// and routing logic reads as errors.Is instead of code string comparisons.
func (r *Response) Err() error {
	if r == nil || r.OK {
		return nil
	}
	return &ResponseError{
		Code:       r.Code,
		Message:    r.Error,
		RetryAfter: time.Duration(r.RetryAfterMS) * time.Millisecond,
	}
}
