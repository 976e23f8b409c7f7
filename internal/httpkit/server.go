package httpkit

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// The connection timeouts every viralcast HTTP server applies. A client
// that cannot produce its headers (slowloris) or its body promptly is an
// attack or a casualty, and either way not worth a goroutine; an idle
// keep-alive connection is closed after two minutes.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer returns the http.Server the daemon and the router run h on:
// h behind the header (5 s), whole-request (30 s) and idle (2 min)
// timeouts. Run it with Serve.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Serve runs hs on ln until ctx is canceled or the listener fails, then
// shuts hs down: the listener closes and in-flight requests get up to
// drain to finish. A drain that runs out is not an error; what the
// caller does after Serve returns (a final flush, closing a log) goes
// ahead either way. The error is the listener's failure, or one from
// closing it.
func Serve(ctx context.Context, hs *http.Server, ln net.Listener, drain time.Duration) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-serveErr:
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if serr := hs.Shutdown(drainCtx); err == nil && !errors.Is(serr, context.DeadlineExceeded) {
		err = serr
	}
	return err
}
