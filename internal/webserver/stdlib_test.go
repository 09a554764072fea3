package webserver

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// The live standard-library oracle. The fast client (netsim.HTTPClient)
// and the farm's fast server replaced net/http on both ends of every
// simulated exchange; the stock http.Transport and http.Server built
// here are the reference they must stay indistinguishable from. No
// production code exists to serve this comparison.

// exchange is what one request observably produced: the response as
// the client saw it and the record the site logged for it.
type exchange struct {
	Status        int
	ContentType   string
	ContentLength int64
	Chunked       bool
	Body          string
	Log           logView
}

// logView is a Record without its wall-clock time.
type logView struct {
	RemoteIP, UserAgent, Path string
	Status, Bytes             int
}

// stdlibSite hosts cfg on a stock http.Server at cfg.IP:80, serving
// through the same Site.serve the farm dispatches to.
func stdlibSite(t *testing.T, nw *netsim.Network, cfg Config) *Site {
	t.Helper()
	ln, err := nw.Listen(cfg.IP, 80)
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(cfg.Domain, cfg.IP)
	s := newSite(cfg, nil)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, r, s.fallback)
	})}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return s
}

func TestStdlibDifferential(t *testing.T) {
	t.Parallel()
	type request struct {
		method, path, ua, body string
		close                  bool
	}
	table := []request{
		{method: "GET", path: "/robots.txt", ua: "GPTBot/1.0"},
		{method: "GET", path: "/", ua: "GPTBot/1.0"},
		{method: "GET", path: "/images/art1.png", ua: "GPTBot/1.0"},
		{method: "GET", path: "/missing", ua: "CCBot/2.0"},
		{method: "GET", path: "/gallery.html?page=2", ua: "CCBot/2.0"},
		{method: "GET", path: "/blog/post%201.html", ua: "CCBot/2.0"},
		{method: "HEAD", path: "/about.html", ua: "ClaudeBot/1.0"},
		{method: "POST", path: "/", ua: "ClaudeBot/1.0", body: "q=robots"},
		{method: "GET", path: "/", ua: "Bytespider/1.0"}, // blocked: 403 with a body
		{method: "GET", path: "/about.html"},             // client's default User-Agent
		{method: "GET", path: "/robots.txt", ua: "GPTBot/1.0", close: true},
		{method: "GET", path: "/robots.txt", ua: "GPTBot/1.0"}, // after the close
	}
	cfg := WildcardDisallowSite("diff.test", "203.0.113.40")
	cfg.Blocker = BlockerFunc(func(r *http.Request) *BlockDecision {
		if strings.Contains(r.UserAgent(), "Bytespider") {
			return &BlockDecision{Status: http.StatusForbidden, Body: "<html>blocked</html>"}
		}
		return nil
	})

	const clientIP = "198.51.100.40"
	clients := map[string]func(*netsim.Network) *http.Client{
		"fast": func(nw *netsim.Network) *http.Client { return nw.HTTPClient(clientIP) },
		"stdlib": func(nw *netsim.Network) *http.Client {
			return &http.Client{Transport: &http.Transport{DialContext: nw.Dialer(clientIP)}}
		},
		"stdlib-per-request": func(nw *netsim.Network) *http.Client {
			return &http.Client{Transport: &http.Transport{DialContext: nw.Dialer(clientIP), DisableKeepAlives: true}}
		},
	}
	servers := map[string]func(*netsim.Network) *Site{
		"farm": func(nw *netsim.Network) *Site {
			s, err := startSite(t, nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"stdlib": func(nw *netsim.Network) *Site { return stdlibSite(t, nw, cfg) },
	}

	run := func(client func(*netsim.Network) *http.Client, server func(*netsim.Network) *Site) []exchange {
		nw := netsim.New()
		site := server(nw)
		c := client(nw)
		var out []exchange
		for _, rq := range table {
			var body io.Reader
			if rq.body != "" {
				body = strings.NewReader(rq.body)
			}
			req, err := http.NewRequest(rq.method, site.URL()+rq.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if rq.ua != "" {
				req.Header.Set("User-Agent", rq.ua)
			}
			req.Close = rq.close
			resp, err := c.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", rq.method, rq.path, err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: reading body: %v", rq.method, rq.path, err)
			}
			log := site.Log()
			if len(log) != len(out)+1 {
				t.Fatalf("%s %s: site logged %d records, want %d", rq.method, rq.path, len(log), len(out)+1)
			}
			r := log[len(out)]
			out = append(out, exchange{
				Status:        resp.StatusCode,
				ContentType:   resp.Header.Get("Content-Type"),
				ContentLength: resp.ContentLength,
				Chunked:       len(resp.TransferEncoding) > 0,
				Body:          string(b),
				Log:           logView{r.RemoteIP, r.UserAgent, r.Path, r.Status, r.Bytes},
			})
		}
		return out
	}

	want := run(clients["stdlib"], servers["stdlib"])
	for cn, client := range clients {
		for sn, server := range servers {
			got := run(client, server)
			for i := range table {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s client, %s server: %s %s\n got: %+v\nwant: %+v",
						cn, sn, table[i].method, table[i].path, got[i], want[i])
				}
			}
		}
	}
}
