package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"hyfd"
	"hyfd/internal/incremental"
)

// The server's error vocabulary. Every sentinel maps onto exactly one HTTP
// status code in StatusFor — handlers return errors, and one function turns
// them into wire responses.
var (
	// ErrUnknownDataset: the job or lookup names a dataset that is not
	// registered (404).
	ErrUnknownDataset = errors.New("unknown dataset")
	// ErrDatasetExists: a registration reuses a taken name (409).
	ErrDatasetExists = errors.New("dataset already registered")
	// ErrDeltaConflict: a delta arrived while another delta against the same
	// dataset was still applying; the entry advances one version at a time,
	// so the loser must refresh and retry (409).
	ErrDeltaConflict = errors.New("delta already applying")
	// ErrUnknownJob: the job id is not in the store (404).
	ErrUnknownJob = errors.New("unknown job")
	// ErrQueueFull: admission control rejected the job because the bounded
	// run queue is at capacity (429 + Retry-After).
	ErrQueueFull = errors.New("job queue full")
	// ErrShuttingDown: the server no longer accepts work (503).
	ErrShuttingDown = errors.New("server shutting down")
	// ErrBadRequest wraps malformed or invalid request payloads (400).
	ErrBadRequest = errors.New("bad request")
	// ErrTooLarge: the request body exceeds maxBodyBytes (413).
	ErrTooLarge = errors.New("request body too large")
	// ErrNoTrace: the job exists but has no flight recorder because the
	// server runs with tracing disabled (404).
	ErrNoTrace = errors.New("no trace")
)

// StatusClientClosedRequest is the non-standard (nginx-popularized) status
// for runs aborted by cancellation rather than by a deadline.
const StatusClientClosedRequest = 499

// StatusFor maps an error to its HTTP status code — the single place the
// server's error vocabulary (and the engine's sentinels) meets HTTP.
// Unrecognized errors are internal server errors.
func StatusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, hyfd.ErrUnknownAlgorithm),
		errors.Is(err, hyfd.ErrUnknownMode),
		errors.Is(err, incremental.ErrNotDelta),
		errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownDataset), errors.Is(err, ErrUnknownJob),
		errors.Is(err, ErrNoTrace):
		return http.StatusNotFound
	case errors.Is(err, ErrDatasetExists), errors.Is(err, ErrDeltaConflict):
		return http.StatusConflict
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeError renders err through the StatusFor mapping. A 429 or a 503
// additionally carries a Retry-After hint (whole seconds, minimum 1): both
// tell the client the work itself is fine and the server is merely refusing
// right now — full queue, or draining toward a restart — so a backed-off
// retry is the correct response.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := StatusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.retryAfter())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(errorBody{Error: err.Error(), Status: status})
}

// writeJSON renders v as an indented JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
