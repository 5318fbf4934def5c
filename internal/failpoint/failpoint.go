// Package failpoint is a registry of named fault-injection points for
// deterministic crash and error testing. Production code evaluates a
// failpoint by name at the places where an injected fault is meaningful
// (a write about to hit disk, a rename about to publish a snapshot);
// tests enable an action — return an error, simulate a crash-stop, or
// panic — for the points they want to exercise.
//
// Every name is declared in names.go; internal/lint checks that no
// undeclared fp/* literal exists in the tree.
//
// The disabled fast path is one atomic load, so leaving Eval calls in
// production code costs nothing measurable.
package failpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrCrash is the sentinel for crash-stop simulation: an action returning
// an error that wraps (or is) ErrCrash tells the instrumented write path
// to leave its in-progress write torn — as a killed process would — rather
// than rolling it back cleanly.
var ErrCrash = errors.New("failpoint: simulated crash")

// Action decides what an enabled failpoint does: return nil to pass
// through, an error (possibly wrapping ErrCrash) to inject a fault, or
// panic for panic-isolation tests.
type Action func() error

var (
	mu     sync.RWMutex
	active = map[string]Action{}
	// enabled counts active failpoints so the disabled fast path is a
	// single atomic load with no lock.
	enabled atomic.Int64
)

// Enable arms a failpoint with an action, replacing any previous action.
func Enable(name string, action Action) {
	if action == nil {
		panic("failpoint: Enable requires an action")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := active[name]; !ok {
		enabled.Add(1)
	}
	active[name] = action
}

// EnableError arms a failpoint to return err on every evaluation.
func EnableError(name string, err error) {
	Enable(name, func() error { return err })
}

// EnableAfter arms a failpoint to pass through n evaluations and then
// return err on every one after that — "crash on the Nth write".
func EnableAfter(name string, n int, err error) {
	var hits atomic.Int64
	Enable(name, func() error {
		if hits.Add(1) > int64(n) {
			return err
		}
		return nil
	})
}

// Disable disarms a failpoint. Disabling an inactive name is a no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := active[name]; ok {
		delete(active, name)
		enabled.Add(-1)
	}
}

// Reset disarms every failpoint (test cleanup).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for name := range active {
		delete(active, name)
	}
	enabled.Store(0)
}

// Eval evaluates a failpoint: nil when disabled (the common case, one
// atomic load), otherwise whatever the enabled action returns — and if
// the action panics, the panic propagates to the caller.
func Eval(name string) error {
	if enabled.Load() == 0 {
		return nil
	}
	mu.RLock()
	action, ok := active[name]
	mu.RUnlock()
	if !ok {
		return nil
	}
	return action()
}

// IsCrash reports whether err is an injected crash-stop (wraps ErrCrash).
func IsCrash(err error) bool { return errors.Is(err, ErrCrash) }

// CrashError returns an injectable error that IsCrash recognizes,
// annotated with the failpoint name for test diagnostics.
func CrashError(name string) error {
	return fmt.Errorf("%w at %s", ErrCrash, name)
}
