package core

import (
	"errors"
	"fmt"
)

// IsTransient reports whether any error in err's chain declares itself
// retryable via a `Transient() bool` method: the failure is expected to
// clear on its own (a rebooting collector, a flapping link), so the
// pipeline retries the block with backoff instead of recording a
// BlockError on the first attempt. Probers (e.g. internal/faults) mark
// their own error types transient without importing core.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// ErrFenced reports that a journal append was rejected because the
// writer's lease over its work was reassigned to a newer holder: a
// fenced worker must stop, not retry — its shard now belongs to someone
// else, and anything it would write is already (or will be) produced by
// the new leaseholder. Classify with errors.Is.
var ErrFenced = errors.New("core: journal writer fenced (lease reassigned)")

// PanicError is a worker panic converted into an ordinary error: the
// pipeline recovers per-block panics so one pathological block costs one
// BlockError, not the whole world run.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error renders the panic value (the stack is kept for logs, not the
// one-line message).
func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }
