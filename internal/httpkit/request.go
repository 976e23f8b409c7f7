package httpkit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// EpochHeader carries the sender's view of the current fencing epoch
// on requests and probes. Routers stamp it on everything they send so
// every node they touch — including a restarted zombie ex-primary —
// learns the fleet's epoch; a node that sees a higher epoch than its
// own latches fenced.
const EpochHeader = "X-Viralcast-Epoch"

// QueryInt parses an integer query parameter with a default.
func QueryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, raw)
	}
	return v, nil
}

// QueryFloat parses a numeric query parameter with a default.
func QueryFloat(r *http.Request, name string, def float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not a number", name, raw)
	}
	return v, nil
}

// ReadBody reads a request body of at most limit bytes, appending to
// buf[:0] so a pooled caller reuses its buffer (nil allocates). A false
// return means the body was too large or unreadable and the 413 has
// been written.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, bool) {
	b := bytes.NewBuffer(buf[:0])
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		WriteError(w, http.StatusRequestEntityTooLarge, "body too large or unreadable: %v", err)
		return nil, false
	}
	return b.Bytes(), true
}

// DecodeStrict decodes data as exactly one JSON value, rejecting
// unknown fields, so alternative body shapes (batch envelope vs one bare
// event) are unambiguous and a misspelled field is an error, not a
// silently ignored one. Anything but whitespace after the value is an
// error too: a Decoder stops at the end of the first value, and the hand
// scanners that front this function refuse trailing bytes.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}

// WithBudget installs the per-request deadline (0 disables). The
// handler chain and everything below it — compute paths, shard calls —
// read the deadline through r.Context(); client disconnects cancel the
// same context, so both cases stop the work instead of finishing it for
// nobody.
func WithBudget(timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	if timeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// CtxDone reports whether err is a context cancellation/expiry — the
// signature of an exhausted request budget anywhere down the stack.
func CtxDone(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// WriteDeadline answers a request whose deadline fired (or whose client
// disconnected) before the work completed: 503, machine-readable.
func WriteDeadline(w http.ResponseWriter, err error) {
	WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":  fmt.Sprintf("request deadline exceeded: %v", err),
		"reason": "deadline",
	})
}
