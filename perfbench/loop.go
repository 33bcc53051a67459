package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"vadalink/internal/reasonapi"
)

// openLoop issues len(due) operations on a fixed schedule: operation i is
// due at start+due[i] whatever happened to earlier ones. A dispatcher hands
// due operations to `workers` goroutines (one per client connection); an
// operation that finds every worker busy waits in the queue. Latency is
// timed from the due time, so a stall is charged to every request it
// delays. late[i] is how far behind schedule the dispatcher itself handed
// operation i over. An operation still queued `giveUp` after its due time is
// not sent and reported as skipped.
func openLoop(ctx context.Context, due []time.Duration, workers int, giveUp time.Duration, do func(i int)) (lat, late []time.Duration, skipped []bool) {
	lat = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	skipped = make([]bool, len(due))
	// Sized to every send, so the dispatcher never blocks on slow workers.
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if time.Since(start)-due[i] > giveUp || ctx.Err() != nil {
					skipped[i] = true
					continue
				}
				do(i)
				lat[i] = time.Since(start) - due[i]
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		late[i] = time.Since(start) - d
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lat, late, skipped
}

// client is one benchmark client of the reasoning API. Its transport keeps
// at most conns connections open.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

// requestTimeout bounds one benchmark request; a request that runs longer
// counts as failed.
const requestTimeout = 60 * time.Second

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// response is what the benchmark keeps of one HTTP exchange.
type response struct {
	status int
	hit    bool // X-Cache: hit
	body   []byte
	took   time.Duration // request sent to body read
}

func (c *client) do(method, path string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return response{
		status: resp.StatusCode,
		hit:    resp.Header.Get("X-Cache") == "hit",
		body:   b,
		took:   time.Since(t0),
	}, nil
}

// failed reports whether a response counts against op_fail_frac: any
// non-2xx status (stale_replica, busy and interrupted included) or an
// answer the server marked truncated.
func (r response) failed() bool {
	return r.status < 200 || r.status > 299 || bytes.Contains(r.body, []byte(`"truncated":true`))
}

// checkNoEvictions checks that the workload fit the result cache.
func checkNoEvictions(out *outcome, c *client) error {
	m, err := serverMetrics(c)
	if err != nil {
		return err
	}
	out.check(m.Cache != nil && m.Cache.Evictions == 0, "the result cache evicted entries")
	return nil
}

func serverMetrics(c *client) (reasonapi.Metrics, error) {
	var m reasonapi.Metrics
	resp, err := c.do(http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return m, err
	}
	if resp.status != http.StatusOK {
		return m, fmt.Errorf("/v1/metrics: status %d", resp.status)
	}
	return m, json.Unmarshal(resp.body, &m)
}
