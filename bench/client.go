package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// indexHeader carries a request's schedule index (negative for the traced
// run's replay), so the handler probe can join its timing to the client's
// sample. The daemon ignores it.
const indexHeader = "X-Bench-Index"

// sample is one request as the client saw it.
type sample struct {
	idx  int // schedule index (window) or warm-up position
	inst int // instance index
	op   string
	rhs  int
	lat  time.Duration
	// failed: no 200 response. wrong: a 200 whose answer failed its check.
	failed, wrong bool
	err           error
	out           outcome
	resp          []byte // the response body, when send was asked to keep it
}

func (s sample) ok() bool { return !s.failed && !s.wrong }

// newClient returns an HTTP client that opens at most conns connections.
// Requests take well under a second; the timeout turns a hung daemon into
// a failed request instead of a hung benchmark.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// drive runs a closed loop: each of clients goroutines sends its next
// request only once its previous one is answered. Request first+i (i = 0,
// 1, ...) sends instance pick(first+i); sending stops after n requests
// (n < 0: no limit) or once deadline has passed, whichever comes first, and
// drive returns after every request in flight is answered. Window requests
// (window = true) carry their index in indexHeader. Samples are returned in
// index order.
func drive(c *http.Client, base string, p *plan, clients, first, n int, pick func(int) int,
	deadline time.Time, window bool) ([]sample, time.Duration) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if n >= 0 && i >= n {
					return
				}
				s := send(c, base, p, first+i, pick(first+i), window, false)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	return samples, elapsed
}

func send(c *http.Client, base string, p *plan, idx, inst int, window, keep bool) sample {
	in := p.instances[inst]
	s := sample{idx: idx, inst: inst, op: in.op, rhs: in.rhs}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/"+in.op, bytes.NewReader(in.body))
	if err != nil {
		s.failed, s.err = true, err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if window {
		req.Header.Set(indexHeader, strconv.Itoa(idx))
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		s.failed, s.err, s.lat = true, err, time.Since(t0)
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t0)
	switch {
	case err != nil:
		s.failed, s.err = true, err
	case resp.StatusCode != http.StatusOK:
		s.failed, s.err = true, fmt.Errorf("%s: HTTP %d: %s", in.op, resp.StatusCode, bytes.TrimSpace(raw))
	default:
		s.out, s.err = in.check(raw)
		s.wrong = s.err != nil
		if keep {
			s.resp = raw
		}
	}
	return s
}

// warmUp sends one request per distinct instance of the plan's warm-up
// list and fails on any error: set-up is not measured on a broken daemon.
func warmUp(c *http.Client, base string, p *plan, clients int) error {
	samples, _ := drive(c, base, p, clients, 0, len(p.warm), func(i int) int { return p.warm[i] }, time.Time{}, false)
	for _, s := range samples {
		if !s.ok() {
			return fmt.Errorf("warm-up request %d: %w", s.idx, s.err)
		}
	}
	return nil
}
