package main

import (
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/fcm"
)

// The wrappers below time calls into the program's modules from
// outside, through the interfaces the crawler and fleet already take.
// Only a traced run installs them.

// timedDriver wraps the ecosystem's crawler.PushDriver: every Tick runs
// the push scheduler's flush and its FCM sends.
type timedDriver struct {
	crawler.PushDriver
	busy   atomic.Int64 // ns inside Tick
	calls  atomic.Int64
	pushes atomic.Int64
}

func (d *timedDriver) Tick() int {
	start := time.Now()
	n := d.PushDriver.Tick()
	d.busy.Add(int64(time.Since(start)))
	d.calls.Add(1)
	d.pushes.Add(int64(n))
	return n
}

// countingPending wraps the push service's crawler.PendingChecker. The
// crawler asks it before polling a container, and once more for each
// token of a lost container when a crawl ends.
type countingPending struct {
	crawler.PendingChecker
	calls, nonzero atomic.Int64
}

func (p *countingPending) Pending(token string) int {
	n := p.PendingChecker.Pending(token)
	p.calls.Add(1)
	if n > 0 {
		p.nonzero.Add(1)
	}
	return n
}

// netStats accumulates the round trips of every crawler HTTP client.
type netStats struct {
	mu       sync.Mutex
	lat      []time.Duration
	polls    int // push-service poll requests, retries included
	newConns int
	reused   int
	errors   int
	status5x int
}

// wrapClient installs a timing round tripper on c's transport.
func (s *netStats) wrapClient(c *http.Client) *http.Client {
	base := c.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	c.Transport = &timedTransport{base: base, s: s}
	return c
}

// timedTransport times one round trip (to response headers) and notes
// through httptrace whether it dialled a new connection.
type timedTransport struct {
	base http.RoundTripper
	s    *netStats
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var got, reused atomic.Bool
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		got.Store(true)
		reused.Store(info.Reused)
	}}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)

	t.s.mu.Lock()
	t.s.lat = append(t.s.lat, d)
	if req.URL.Host == fcm.DefaultHost && req.URL.Path == "/poll" {
		t.s.polls++
	}
	if got.Load() {
		if reused.Load() {
			t.s.reused++
		} else {
			t.s.newConns++
		}
	}
	if err != nil {
		t.s.errors++
	} else if resp.StatusCode >= 500 {
		t.s.status5x++
	}
	t.s.mu.Unlock()
	return resp, err
}

// report adds the network layer's metrics to m.
func (s *netStats) report(m map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["vnet.crawler_requests"] = float64(len(s.lat))
	m["crawler.polls"] = float64(s.polls)
	m["vnet.request_p50_us"] = quantileUS(s.lat, 0.50)
	m["vnet.request_p99_us"] = quantileUS(s.lat, 0.99)
	m["vnet.new_conns"] = float64(s.newConns)
	m["vnet.conn_reuse_ratio"] = ratio(float64(s.reused), float64(s.reused+s.newConns))
	m["vnet.request_errors"] = float64(s.errors)
	m["vnet.status_5xx"] = float64(s.status5x)
}
