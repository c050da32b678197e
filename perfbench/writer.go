package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// lagTimeout bounds how long one acknowledged batch may take to reach the
// follower before the run's replication gate fails.
const lagTimeout = 10 * time.Second

// writer is the ingest sender: one connection, batches alternating over
// its stores. Each batch is acknowledged before the next is built, so the
// batches are fixed by the seed. For every acknowledged batch it measures
// the replication lag: from the leader's ack to the follower's
// Store.WaitEpoch(token) returning.
type writer struct {
	base    string
	rng     *rand.Rand
	streams []*ingestStream
	fol     map[string]*server.Store
	hc      *http.Client

	bodyBytes int64             // request bytes of acknowledged batches
	acked     map[string]uint64 // highest acknowledged epoch per store

	lagMu    sync.Mutex
	lags     []float64 // ms
	lagFails int
	lagWG    sync.WaitGroup
}

func newWriter(d *deployment, seed int64, streams []*ingestStream) (*writer, error) {
	w := &writer{
		base:    d.url,
		rng:     rand.New(rand.NewSource(seed)),
		streams: streams,
		fol:     map[string]*server.Store{},
		hc:      httpClient(),
		acked:   map[string]uint64{},
	}
	for _, s := range streams {
		fst, err := d.follower(s.store)
		if err != nil {
			return nil, err
		}
		w.fol[s.store] = fst
	}
	return w, nil
}

// do sends batch i and reports whether it was acknowledged.
func (w *writer) do(i int) bool {
	s := w.streams[i%len(w.streams)]
	body, err := json.Marshal(s.next(w.rng))
	if err != nil {
		return false
	}
	status, _, data, _, err := send(w.hc, http.MethodPost, w.base+"/stores/"+s.store+"/ingest", body, "", true)
	if err != nil || !ok2xx(status) {
		return false
	}
	acked := time.Now()
	var resp server.IngestResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return false
	}
	s.ack(&resp)
	w.bodyBytes += int64(len(body))
	if resp.Epoch > w.acked[s.store] {
		w.acked[s.store] = resp.Epoch
	}
	fst := w.fol[s.store]
	w.lagWG.Add(1)
	go func() {
		defer w.lagWG.Done()
		reached := fst.WaitEpoch(resp.Epoch, lagTimeout)
		lag := ms(time.Since(acked))
		w.lagMu.Lock()
		defer w.lagMu.Unlock()
		if reached {
			w.lags = append(w.lags, lag)
		} else {
			w.lagFails++
		}
	}()
	return true
}

// wait blocks until every lag measurement has finished and releases the
// connection.
func (w *writer) wait() {
	w.lagWG.Wait()
	w.hc.CloseIdleConnections()
}

// lagErr reports acknowledged batches the follower never applied.
func (w *writer) lagErr() error {
	if w.lagFails > 0 {
		return fmt.Errorf("%d acknowledged batches did not reach the follower within %v", w.lagFails, lagTimeout)
	}
	return nil
}
