package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the scheduler sleeps or a request runs.
type fakeClock struct{ t time.Time }

func (c *fakeClock) clock() clock {
	return clock{
		now:   func() time.Time { return c.t },
		sleep: func(d time.Duration) { c.t = c.t.Add(d) },
	}
}

// A slow response delays the requests due behind it: each is timed from
// its due time, not from when it could be sent, and the delay is reported
// as lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	start := fc.t
	ms := time.Millisecond
	service := []time.Duration{35 * ms, ms, ms, ms, ms}
	outs := openLoop(fc.clock(), start, 100, start.Add(50*ms), epIngest, func(i int) bool {
		fc.t = fc.t.Add(service[i])
		return true
	})
	want := []struct{ lat, late time.Duration }{
		{35 * ms, 0},       // due 0, sent 0, done 35
		{26 * ms, 25 * ms}, // due 10, sent 35, done 36
		{17 * ms, 16 * ms}, // due 20, sent 36
		{8 * ms, 7 * ms},   // due 30, sent 37
		{1 * ms, 0},        // due 40: the sender caught up and waited
	}
	if len(outs) != len(want) {
		t.Fatalf("%d requests sent before the deadline, want %d", len(outs), len(want))
	}
	for i, w := range want {
		if outs[i].lat != w.lat || outs[i].late != w.late || !outs[i].open {
			t.Errorf("request %d: lat %v late %v open %v; want %v %v true", i, outs[i].lat, outs[i].late, outs[i].open, w.lat, w.late)
		}
	}
	late, _ := percentile(newTally(outs).late, 0.5)
	if late != 7 {
		t.Errorf("median lateness %v ms, want 7", late)
	}
}

// A closed loop over a finite stream ends once every read was sent, long
// before its deadline, and sends each read exactly once.
func TestClosedLoopEndsWithFiniteStream(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(body)]++
		mu.Unlock()
	}))
	defer srv.Close()
	stream := &readStream{}
	for i := 0; i < 7; i++ {
		stream.buf = append(stream.buf, &readReq{endpoint: epQuery, path: "/query", body: []byte(fmt.Sprint(i))})
	}
	start := time.Now()
	outs := closedLoop(srv.URL, 2, start.Add(time.Minute), stream, "t", false, nil)
	if time.Since(start) > 30*time.Second {
		t.Fatal("closed loop ran on after its stream was exhausted")
	}
	if len(outs) != 7 || len(seen) != 7 {
		t.Fatalf("%d reads over %d distinct bodies, want 7 and 7", len(outs), len(seen))
	}
	for body, n := range seen {
		if n != 1 {
			t.Errorf("read %s sent %d times", body, n)
		}
	}
	if stream.take() != nil {
		t.Error("an exhausted finite stream returned a read")
	}
}
