package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lam/internal/telemetry"
)

// newClient returns the load generator's HTTP client: at most conns
// connections to any one host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one JSON POST and reads the whole response. trace, when
// set, is sent as the request's trace ID so every layer's timing of it
// can be joined.
func post(c *http.Client, url string, body []byte, trace string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(telemetry.TraceHeader, trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sample is one request as the load generator saw it.
type sample struct {
	key    int       // which pooled request was sent
	due    time.Time // when it was due (open loop) or sent (closed loop)
	sent   time.Time
	done   time.Time
	status int // 0 on a transport error
	trace  string
	body   []byte
}

func (s *sample) ok() bool   { return s.status == http.StatusOK }
func (s *sample) shed() bool { return s.status == http.StatusTooManyRequests }

// latency is measured from when the request was due.
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// closedLoop runs workers clients that each send their next request
// only after the previous one completes, until the deadline. body(i)
// gives the i-th request and its pool key.
func closedLoop(ctx context.Context, c *http.Client, url string, workers int, deadline time.Time, traced bool, body func(i int) ([]byte, int)) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				b, key := body(i)
				local = append(local, send(c, url, b, key, time.Now(), traced))
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends request i at start+offsets[i] regardless of how
// earlier requests fare. workers connections serve the arrivals in
// order; an arrival that finds all of them busy waits for the next free
// one (it is never dropped), and its latency still counts from when it
// was due.
func openLoop(ctx context.Context, c *http.Client, url string, workers int, start time.Time, offsets []time.Duration, traced bool, body func(i int) ([]byte, int)) []sample {
	var next atomic.Int64
	out := make([]sample, len(offsets))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				due := start.Add(offsets[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				b, key := body(i)
				out[i] = send(c, url, b, key, due, traced)
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(offsets) {
		n = len(offsets)
	}
	return out[:n]
}

func send(c *http.Client, url string, b []byte, key int, due time.Time, traced bool) sample {
	s := sample{key: key, due: due}
	if traced {
		s.trace = telemetry.NewTraceID().String()
	}
	s.sent = time.Now()
	status, resp, err := post(c, url, b, s.trace)
	s.done = time.Now()
	if err == nil {
		s.status, s.body = status, resp
	}
	return s
}

// counts tallies a phase's requests.
type counts struct {
	sent, ok, failed, shed int
	firstFailure           string // what the first failed request got
}

func tally(ss []sample) counts {
	var c counts
	for i := range ss {
		c.sent++
		switch {
		case ss[i].ok():
			c.ok++
		case ss[i].shed():
			c.shed++
		default:
			if c.failed++; c.failed == 1 {
				c.firstFailure = fmt.Sprintf("status %d %.200s", ss[i].status, ss[i].body)
			}
		}
	}
	return c
}

func okLatencies(ss []sample) durations {
	var d durations
	for i := range ss {
		if ss[i].ok() {
			d = append(d, ss[i].latency())
		}
	}
	return d
}
