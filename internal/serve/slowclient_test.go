package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"viralcast/internal/httpkit"
)

// TestSlowClientHeaderTimeout: a slowloris-style client that dribbles
// its request headers one byte at a time gets its connection closed by
// ReadHeaderTimeout instead of pinning a server goroutine. This drives
// the real Listen/Serve path (httptest servers don't apply the
// http.Server timeouts under test here), with the header timeout of
// the daemon's server cut from 5s to 100ms through its newHTTPServer
// seam.
func TestSlowClientHeaderTimeout(t *testing.T) {
	srv, err := New(Config{
		Loader:       fixtureLoader(t),
		DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.newHTTPServer = func(h http.Handler) *http.Server {
		hs := httpkit.NewServer(h)
		hs.ReadHeaderTimeout = 100 * time.Millisecond
		return hs
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// ~60 header bytes at 20ms each would take >1s to arrive — far past
	// the 100ms header budget. The server must cut the connection off.
	request := "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: aaaaaaaaaaaaaaaa\r\n\r\n"
	start := time.Now()
	_, copyErr := io.Copy(slowWriter{w: conn, delay: 20 * time.Millisecond}, strings.NewReader(request))
	if copyErr == nil {
		// The write side may not observe the reset; the read side must.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("server answered a request whose headers took >1s against a 100ms ReadHeaderTimeout")
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("slow client held its connection for %v", elapsed)
	}

	// The daemon itself is unharmed: a normal client still gets through.
	fast, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if _, err := io.WriteString(fast, "GET /healthz HTTP/1.0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	fast.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := io.ReadAll(fast)
	if err != nil || !strings.Contains(string(reply), "200 OK") {
		t.Fatalf("healthy client after slowloris: err=%v reply=%q", err, reply)
	}
}

// slowWriter trickles every Write out one byte at a time with delay
// before each byte: a client dribbling its request.
type slowWriter struct {
	w     io.Writer
	delay time.Duration
}

func (s slowWriter) Write(p []byte) (int, error) {
	for i := range p {
		time.Sleep(s.delay)
		if _, err := s.w.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}
