package httpkit

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerCutsOffDribblingClients: the server NewServer builds, run
// through Serve, closes a connection whose client dribbles its header
// or, with the header sent, its body, instead of leaving a goroutine
// parked on it. The test lowers the timeouts on the helper's own
// *http.Server; a healthy client still gets through, and Serve drains
// cleanly when its context ends.
func TestServerCutsOffDribblingClients(t *testing.T) {
	bodyErr := make(chan error, 1)
	hs := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		if r.Method == http.MethodPost {
			bodyErr <- err
		}
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	if hs.ReadHeaderTimeout != 5*time.Second || hs.ReadTimeout != 30*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Fatalf("NewServer timeouts: header %v, read %v, idle %v; want 5s, 30s, 2m",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	hs.ReadTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, hs, ln, time.Second) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve after cancel: %v", err)
		}
	})
	addr := ln.Addr().String()

	t.Run("header", func(t *testing.T) {
		conn := dial(t, addr)
		// ~60 header bytes at 20 ms each take over a second to arrive,
		// far past the 100 ms header budget.
		go dribble(conn, "GET / HTTP/1.1\r\nHost: x\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n")
		if got := readUntilClosed(t, conn); strings.Contains(got, "200 OK") {
			t.Fatalf("server answered a header that took over a second against a 100ms budget: %q", got)
		}
	})

	t.Run("body", func(t *testing.T) {
		conn := dial(t, addr)
		if _, err := io.WriteString(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 200\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		// 200 body bytes at 20 ms each take four seconds; the whole
		// request has 300 ms.
		start := time.Now()
		go dribble(conn, strings.Repeat("b", 200))
		if got := readUntilClosed(t, conn); !strings.Contains(got, "400 Bad Request") {
			t.Fatalf("dribbled body: server sent %q, want the handler's 400 for a body it could not read", got)
		}
		if err := <-bodyErr; err == nil {
			t.Fatal("the handler read a body that took four seconds against a 300ms budget")
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("dribbling client held its connection for %v", elapsed)
		}
	})

	t.Run("healthy", func(t *testing.T) {
		conn := dial(t, addr)
		if _, err := io.WriteString(conn, "GET / HTTP/1.0\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		if got := readUntilClosed(t, conn); !strings.Contains(got, "200 OK") {
			t.Fatalf("healthy client after the dribblers: %q", got)
		}
	})
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// dribble writes s to conn one byte every 20 ms, until it is written or
// the server has closed the connection.
func dribble(conn net.Conn, s string) {
	for i := range len(s) {
		time.Sleep(20 * time.Millisecond)
		if _, err := conn.Write([]byte{s[i]}); err != nil {
			return
		}
	}
}

// readUntilClosed returns what the server sends on conn before it
// closes the connection, and fails the test if the server still holds
// it after two seconds.
func readUntilClosed(t *testing.T, conn net.Conn) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still holds the connection after 2s (sent %q)", got)
	}
	return string(got)
}
