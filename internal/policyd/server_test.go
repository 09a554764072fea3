package policyd

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestServerClosesHalfSentHeader opens a loopback connection to a
// NewServer listener, sends half a request header and stalls. The
// server must hang up once ReadHeaderTimeout passes instead of holding
// the connection open.
func TestServerClosesHalfSentHeader(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer("", http.NotFoundHandler()) // the request never completes
	go srv.Serve(ln)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: policyd.test\r\n"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(start.Add(ReadHeaderTimeout + 10*time.Second))
	_, err = io.ReadAll(c)
	waited := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a half-sent header", waited)
	}
	if waited < ReadHeaderTimeout-100*time.Millisecond {
		t.Fatalf("server hung up after %v, before ReadHeaderTimeout (%v)", waited, ReadHeaderTimeout)
	}
}
