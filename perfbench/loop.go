package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// send issues one request over hc and drains the response. It returns the
// HTTP status (0 on a transport error), the response body size, the body
// itself when keep is set, and the echoed X-Request-ID.
func send(hc *http.Client, method, url string, body []byte, reqID string, keep bool) (status int, n int64, data []byte, echo string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, nil, "", err
	}
	defer resp.Body.Close()
	if keep {
		data, err = io.ReadAll(resp.Body)
		n = int64(len(data))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return 0, n, nil, "", err
	}
	return resp.StatusCode, n, data, resp.Header.Get("X-Request-ID"), nil
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// readResult is what a closed-loop client learned from one read.
type readResult struct {
	req        *readReq
	reqID      string
	start, end time.Time
	bytes      int64
	body       []byte
	echo       string
}

// closedLoop runs clients that each send their next read only after the
// previous one completed, until the deadline or until a finite stream is
// exhausted. after, when set, runs on the client's goroutine after every
// read (the traced run replays layers there, so it costs the client its
// turn exactly like the read did).
func closedLoop(base string, clients int, deadline time.Time, stream *readStream, idPrefix string, keep bool, after func(*readResult)) []outcome {
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := httpClient()
			defer hc.CloseIdleConnections()
			var mine []outcome
			for i := 0; time.Now().Before(deadline); i++ {
				r := stream.take()
				if r == nil {
					break
				}
				res := &readResult{req: r, reqID: fmt.Sprintf("%s-%d-%d", idPrefix, c, i)}
				method := http.MethodPost
				if r.body == nil {
					method = http.MethodGet
				}
				res.start = time.Now()
				status, n, data, echo, err := send(hc, method, base+r.path, r.body, res.reqID, keep)
				res.end = time.Now()
				res.bytes, res.body, res.echo = n, data, echo
				mine = append(mine, outcome{endpoint: r.endpoint, lat: res.end.Sub(res.start), ok: err == nil && ok2xx(status)})
				if after != nil && err == nil && ok2xx(status) {
					after(res)
				}
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return outs
}

// clock is the time source of the open-loop scheduler (replaced in tests).
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// openLoop sends request i at its due time start + i/rate, whether or not
// earlier requests have completed, until the due time reaches the
// deadline. A single sender owns one connection, so when a response is
// slow the next request goes out late: its latency is measured from its
// due time, so the wait a stall imposes on later requests is counted, and
// the lateness is reported on its own.
func openLoop(clk clock, start time.Time, rate float64, deadline time.Time, endpoint string, do func(i int) bool) []outcome {
	var outs []outcome
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(deadline) {
			return outs
		}
		if d := due.Sub(clk.now()); d > 0 {
			clk.sleep(d)
		}
		sent := clk.now()
		ok := do(i)
		end := clk.now()
		outs = append(outs, outcome{endpoint: endpoint, lat: end.Sub(due), late: sent.Sub(due), open: true, ok: ok})
	}
}
