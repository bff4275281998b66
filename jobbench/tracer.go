package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// tracer accumulates the client-side view of one HTTP client's
// requests: count and total time per route, where a request's time
// runs from the call to the end of its response body. For claims it
// also counts the ones that leased nothing.
type tracer struct {
	mu          sync.Mutex
	routes      map[string]routeStat
	claims      int
	emptyClaims int
}

type routeStat struct {
	N    int
	Secs float64
}

func newTracer() *tracer { return &tracer{routes: make(map[string]routeStat)} }

func (t *tracer) record(route string, d time.Duration, status int, body []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.routes[route]
	rs.N++
	rs.Secs += d.Seconds()
	t.routes[route] = rs
	if route != "claim" || status != http.StatusOK {
		return
	}
	var claim struct {
		Shards []json.RawMessage `json:"shards"`
	}
	if json.Unmarshal(body, &claim) == nil {
		t.claims++
		if len(claim.Shards) == 0 {
			t.emptyClaims++
		}
	}
}

// snapshot copies the per-route totals.
func (t *tracer) snapshot() map[string]routeStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]routeStat, len(t.routes))
	for k, v := range t.routes {
		out[k] = v
	}
	return out
}

// claimCounts returns the successful claims and the empty ones.
func (t *tracer) claimCounts() (claims, empty int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.claims, t.emptyClaims
}

// routeOf names the API route a request addresses.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/campaigns":
		return "submit"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/shards/claim"):
		return "claim"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/result"):
		return "upload"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case p == "/v1/jobs":
		return "discover"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/dataset"):
		return "fetch"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.Count(p, "/") == 3:
		return "poll"
	}
	return "other"
}

// timingRT is the http.RoundTripper handed to apiclient.NewWithHTTPClient
// in traced runs.
type timingRT struct {
	next http.RoundTripper
	t    *tracer
}

func (rt *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req)
	start := time.Now()
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		rt.t.record(route, time.Since(start), 0, nil)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rt: rt, route: route,
		start: start, status: resp.StatusCode, keep: route == "claim"}
	return resp, nil
}

// timedBody ends its request's timing when the body is closed.
type timedBody struct {
	io.ReadCloser
	rt     *timingRT
	route  string
	start  time.Time
	status int
	keep   bool
	buf    bytes.Buffer
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.keep {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.rt.t.record(b.route, time.Since(b.start), b.status, b.buf.Bytes()) })
	return b.ReadCloser.Close()
}
