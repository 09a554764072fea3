package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// rawServe accepts connections on ln and hands each to fn in its own
// goroutine — a hand-written peer for exercising exact wire behaviour
// the fast client must survive.
func rawServe(ln net.Listener, fn func(net.Conn)) {
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go fn(c)
		}
	}()
}

// readRequestHead consumes one request head (through the blank line) so
// a raw peer can answer it.
func readRequestHead(c net.Conn) error {
	buf := make([]byte, 4096)
	total := 0
	for {
		n, err := c.Read(buf[total:])
		total += n
		if bytes.Contains(buf[:total], []byte("\r\n\r\n")) {
			return nil
		}
		if err != nil {
			return err
		}
		if total == len(buf) {
			return errors.New("head too large")
		}
	}
}

// TestFastClientDeadlineMidRead pins deadline behaviour when the peer
// stalls after the response head: the body read must fail with a
// deadline error instead of hanging.
func TestFastClientDeadlineMidRead(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.60", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("stall.test", "203.0.113.60")
	rawServe(ln, func(c net.Conn) {
		defer c.Close()
		if err := readRequestHead(c); err != nil {
			return
		}
		// Promise 100 bytes, deliver 5, then stall forever.
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello")
		time.Sleep(10 * time.Second)
	})

	client := nw.HTTPClient("198.51.100.60")
	client.Timeout = 50 * time.Millisecond
	start := time.Now()
	resp, err := client.Get("http://stall.test/")
	if err != nil {
		t.Fatalf("head should have arrived before the stall: %v", err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatal("body read succeeded though the peer stalled")
	}
	var nerr net.Error
	timeout := errors.As(err, &nerr) && nerr.Timeout()
	if !timeout && !errors.Is(err, os.ErrDeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline/timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestFastClientPeerCloseMidResponse pins the truncated-response case:
// the peer closes after sending part of a fixed-length body, and the
// client must surface an error once the buffered bytes drain — not EOF
// masquerading as success, and not a hang.
func TestFastClientPeerCloseMidResponse(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.61", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("trunc.test", "203.0.113.61")
	rawServe(ln, func(c net.Conn) {
		if err := readRequestHead(c); err != nil {
			c.Close()
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly this much")
		c.Close() // netsim delivers buffered bytes, then EOF
	})

	client := nw.HTTPClient("198.51.100.61")
	resp, err := client.Get("http://trunc.test/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("truncated body read succeeded with %d of 100 bytes", len(body))
	}
	if string(body) != "only this much" {
		t.Fatalf("buffered bytes not drained before the error: %q", body)
	}
}

// TestFastClientPostBodyAcrossRing sends a POST body several times the
// 32KiB netsim ring and checks the bytes arrive intact: the client must
// interleave body writes with the server's reads instead of deadlocking
// on a full ring.
func TestFastClientPostBodyAcrossRing(t *testing.T) {
	const bodySize = 100 << 10 // ~3 rings
	payload := bytes.Repeat([]byte("0123456789abcdef"), bodySize/16)

	nw := New()
	ln, err := nw.Listen("203.0.113.62", 80)
	if err != nil {
		t.Fatal(err)
	}
	nw.Register("post.test", "203.0.113.62")
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !bytes.Equal(got, payload) {
			http.Error(w, fmt.Sprintf("body corrupted: %d bytes", len(got)), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%d", len(got))
	})}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	client := nw.HTTPClient("198.51.100.62")
	client.Timeout = 10 * time.Second
	for i := 0; i < 3; i++ { // repeat to also cover pooled-conn reuse
		resp, err := client.Post("http://post.test/upload", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK || string(reply) != fmt.Sprintf("%d", bodySize) {
			t.Fatalf("round %d: status %d, reply %q", i, resp.StatusCode, reply)
		}
	}
}

// TestFastClientRetriesDeadPooledConn pins the retry-once contract: a
// pooled keep-alive connection whose peer hung up must be replaced
// transparently on the next request.
func TestFastClientRetriesDeadPooledConn(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.63", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("flaky.test", "203.0.113.63")
	rawServe(ln, func(c net.Conn) {
		// Answer exactly one request per connection, then hang up without
		// announcing Connection: close — the client's pooled conn dies.
		defer c.Close()
		if err := readRequestHead(c); err != nil {
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	})

	client := nw.HTTPClient("198.51.100.63")
	for i := 0; i < 3; i++ {
		resp, err := client.Get("http://flaky.test/")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "ok" {
			t.Fatalf("request %d: body %q, err %v", i, body, err)
		}
	}
}

// TestFastClientContextCancelMidRequest checks per-request contexts
// translate to deadlines on the simulated conn.
func TestFastClientContextCancelMidRequest(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.64", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("slow.test", "203.0.113.64")
	rawServe(ln, func(c net.Conn) {
		defer c.Close()
		readRequestHead(c)
		time.Sleep(10 * time.Second)
	})

	client := nw.HTTPClient("198.51.100.64")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://slow.test/", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("request succeeded though the server never answered")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context deadline took %v to fire", elapsed)
	}
}

// TestFastClientStdlibFallback sends the requests the fast path does not
// frame itself — a PUT, a POST of unknown length, a request with
// trailers — through HTTPClient. Each must be answered correctly by way
// of the stdlib fallback transport and be counted on the path="legacy"
// series only.
func TestFastClientStdlibFallback(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.70", 80)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Trailers are readable only once the body is drained.
		fmt.Fprintf(w, "%s %q te=%v sum=%s", r.Method, body, r.TransferEncoding, r.Trailer.Get("X-Sum"))
	})}
	go srv.Serve(ln)
	defer srv.Close()
	client := nw.HTTPClient("198.51.100.70")

	put, _ := http.NewRequest(http.MethodPut, "http://203.0.113.70/put", strings.NewReader("put-body"))
	unknownLen, _ := http.NewRequest(http.MethodPost, "http://203.0.113.70/stream", io.NopCloser(strings.NewReader("streamed")))
	unknownLen.ContentLength = -1
	// An opaque body leaves ContentLength 0, which the fast path alone
	// would frame; only the trailer sends this one to the fallback.
	trailer, _ := http.NewRequest(http.MethodPost, "http://203.0.113.70/trailer", io.NopCloser(strings.NewReader("with-trailer")))
	trailer.Trailer = http.Header{"X-Sum": {"42"}}
	for _, tc := range []struct {
		req  *http.Request
		want string
	}{
		{put, `PUT "put-body" te=[] sum=`},
		{unknownLen, `POST "streamed" te=[chunked] sum=`},
		{trailer, `POST "with-trailer" te=[chunked] sum=42`},
	} {
		fast, legacy := mHTTPFastRequests.Value(), mHTTPLegacyRequests.Value()
		resp, err := client.Do(tc.req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.req.Method, tc.req.URL.Path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != tc.want {
			t.Fatalf("%s %s = %d %q (%v), want 200 %q", tc.req.Method, tc.req.URL.Path, resp.StatusCode, body, err, tc.want)
		}
		if d := mHTTPLegacyRequests.Value() - legacy; d != 1 {
			t.Errorf("%s %s: path=\"legacy\" counter moved by %d, want 1", tc.req.Method, tc.req.URL.Path, d)
		}
		if d := mHTTPFastRequests.Value() - fast; d != 0 {
			t.Errorf("%s %s: path=\"fast\" counter moved by %d, want 0", tc.req.Method, tc.req.URL.Path, d)
		}
	}
}
