package sciql

import (
	"context"
	"errors"
)

// This file maps the engine's typed errors onto SQLSTATE codes, the
// five-character error classification every PostgreSQL client library
// understands. The network server (internal/server) attaches the code
// to pgwire ErrorResponse messages and HTTP/JSON error bodies, so a
// psql/pgx/JDBC front end can distinguish a retryable serialization
// failure from an admission rejection without parsing message text.

// SQLSTATE codes surfaced by the engine, following the PostgreSQL
// assignments where one exists for the same condition.
const (
	// SQLStateSyntaxError classifies parse errors (42601).
	SQLStateSyntaxError = "42601"
	// SQLStateGeneric classifies other statement-level errors —
	// unknown arrays, type mismatches, unsupported shapes (42000,
	// syntax_error_or_access_rule_violation).
	SQLStateGeneric = "42000"
	// SQLStateSerializationFailure classifies ErrTxConflict (40001):
	// first-committer-wins lost; retry the transaction.
	SQLStateSerializationFailure = "40001"
	// SQLStateQueryCanceled classifies ErrStatementTimeout and
	// caller/client cancellation (57014, query_canceled).
	SQLStateQueryCanceled = "57014"
	// SQLStateTooManyConnections classifies ErrAdmission (53300): no
	// execution slot, queue full or expired, or draining.
	SQLStateTooManyConnections = "53300"
	// SQLStateOutOfMemory classifies ErrMemoryBudget (53200).
	SQLStateOutOfMemory = "53200"
	// SQLStateInternalError classifies contained panics (XX000).
	SQLStateInternalError = "XX000"
	// SQLStateInFailedTransaction rejects statements sent inside an
	// aborted transaction block before ROLLBACK (25P02).
	SQLStateInFailedTransaction = "25P02"
	// SQLStateInvalidPassword rejects a failed startup authentication
	// exchange (28P01).
	SQLStateInvalidPassword = "28P01"
	// SQLStateAdminShutdown tells a connected client the server is
	// shutting down (57P01).
	SQLStateAdminShutdown = "57P01"
)

// syntaxError marks a text the parser refused (compile wraps the
// parser's error in it; the message is unchanged).
type syntaxError struct{ error }

func (e syntaxError) Unwrap() error { return e.error }

// SQLState classifies err as a SQLSTATE code. Parse errors and typed
// governor and transaction errors map onto their PostgreSQL
// equivalents; anything unrecognized classifies as SQLStateGeneric (a
// statement-level user error), never as an internal error — XX000 is
// reserved for contained panics, which are engine bugs by definition.
// nil maps to "".
func SQLState(err error) string {
	if err == nil {
		return ""
	}
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return SQLStateInternalError
	case errors.As(err, new(syntaxError)):
		return SQLStateSyntaxError
	case errors.Is(err, ErrTxConflict):
		return SQLStateSerializationFailure
	case errors.Is(err, ErrStatementTimeout):
		return SQLStateQueryCanceled
	case errors.Is(err, ErrAdmission):
		return SQLStateTooManyConnections
	case errors.Is(err, ErrMemoryBudget):
		return SQLStateOutOfMemory
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return SQLStateQueryCanceled
	}
	return SQLStateGeneric
}
