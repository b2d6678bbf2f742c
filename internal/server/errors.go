// Package server is fssrv's engine room: a multi-tenant simulation service
// that accepts (program, machine configuration, options) jobs over a JSON
// HTTP API and runs them on a bounded worker pool. Its design goal is the
// same invariant the rest of the tree enforces for a single run, lifted to
// a shared process: every job ends bit-identical or typed — admission
// overload, injected faults, client disconnects, worker panics and whole-
// process crashes all resolve to a recovered result or a typed error code,
// never a silently lost or silently wrong job. A job runs once; a failed
// run ends on its code, and resubmission belongs with the client.
//
// The pieces:
//
//   - admission control with typed load shedding (Submit),
//   - a crash-safe append-only job journal with restart recovery (journal.go),
//   - per-job deadlines and cancellation wired to core.RunContext (job.go),
//   - a process-wide shared p-action cache with epoch publication and
//     poisoning (memo.SharedCache), so tenants warm-start each other
//     without ever sharing a quarantined chain.
//
// See docs/SERVER.md for the API and the job lifecycle state machine.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"fastsim/internal/core"
	"fastsim/internal/memo"
)

// Code is a stable machine-readable job/request error code. Every code maps
// to exactly one HTTP status (HTTPStatus) and every typed simulator
// sentinel maps to exactly one code (Classify); the server never invents
// per-request spellings.
type Code string

const (
	// CodeBadRequest rejects malformed JSON or an ill-formed job spec.
	CodeBadRequest Code = "bad_request"
	// CodeUnknownWorkload rejects a spec naming no registered workload.
	CodeUnknownWorkload Code = "unknown_workload"
	// CodeBadConfig maps core.ErrBadConfig: the spec parsed but the
	// resulting simulator configuration failed validation.
	CodeBadConfig Code = "bad_config"
	// CodeNotFound reports an unknown job id.
	CodeNotFound Code = "not_found"
	// CodeConflict rejects an operation invalid in the job's current state
	// (e.g. cancelling a finished job).
	CodeConflict Code = "conflict"
	// CodeQueueFull sheds load when the job queue is at capacity. Retry
	// after the advertised delay.
	CodeQueueFull Code = "queue_full"
	// CodeMemoryBudget sheds load when admitting the job would exceed the
	// server's aggregate p-action cache budget. Retry after the advertised
	// delay.
	CodeMemoryBudget Code = "memory_budget"
	// CodeDraining rejects new jobs while the server is shutting down.
	CodeDraining Code = "draining"
	// CodeAcceptFault reports an injected or IO failure while durably
	// accepting the job (the server.accept site or a failed journal
	// write); the job was NOT accepted and may be resubmitted.
	CodeAcceptFault Code = "accept_fault"
	// CodeEngineFault maps memo.ErrEngineFault: the memoization layer hit
	// an unrecoverable internal fault and refused to emit statistics.
	CodeEngineFault Code = "engine_fault"
	// CodeCancelled reports a job cancelled by the client (DELETE or a
	// dropped synchronous connection) before completing.
	CodeCancelled Code = "cancelled"
	// CodeDeadline reports a job that exceeded its deadline.
	CodeDeadline Code = "deadline"
	// CodeInternal covers everything else, including isolated worker
	// panics. The job failed; the server keeps serving.
	CodeInternal Code = "internal"
)

// HTTPStatus returns the one HTTP status a code renders as. 499 is the
// de-facto "client closed request" status: the client is gone, so the
// status is for the journal and the job view, not the wire.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeBadRequest, CodeUnknownWorkload, CodeBadConfig:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeQueueFull, CodeMemoryBudget:
		return http.StatusTooManyRequests
	case CodeDraining, CodeAcceptFault:
		return http.StatusServiceUnavailable
	case CodeEngineFault, CodeInternal:
		return http.StatusInternalServerError
	case CodeCancelled:
		return 499
	case CodeDeadline:
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// Retryable reports whether a client holding this code should resubmit the
// identical request later: the rejection is about the server's current
// load or shutdown state, not about the request.
func (c Code) Retryable() bool {
	switch c {
	case CodeQueueFull, CodeMemoryBudget, CodeAcceptFault:
		return true
	}
	return false
}

// Error is the server's typed error: a code plus a human-readable message.
// It wraps the underlying cause, so errors.Is still matches the simulator
// sentinels through it.
type Error struct {
	Code Code
	Msg  string
	err  error
}

func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("server: %s: %s", e.Code, e.Msg)
	}
	return fmt.Sprintf("server: %s", e.Code)
}

func (e *Error) Unwrap() error { return e.err }

// codeErr builds a typed error wrapping cause (which may be nil).
func codeErr(code Code, cause error, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...), err: cause}
}

// Classify maps any error to its code: a server *Error keeps its own code;
// the simulator's typed sentinels map one-to-one; context errors map to
// cancellation codes; everything else is internal.
func Classify(err error) Code {
	var se *Error
	switch {
	case err == nil:
		return ""
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, core.ErrBadConfig):
		return CodeBadConfig
	case errors.Is(err, memo.ErrEngineFault):
		return CodeEngineFault
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeCancelled
	}
	return CodeInternal
}
