package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/gen"
	"repro/internal/prov"
	"repro/internal/server"
	"repro/internal/wal"
)

// freshStore is the store that starts empty: a new project being checked in.
const freshStore = "fresh"

// storeNames are the leader's stores: provd's default store, seeded with
// the graph, and freshStore.
var storeNames = []string{server.DefaultStore, freshStore}

// deployment is one provd leader serving loopback HTTP from this process,
// with provd's defaults, plus a follower registry replicating it over that
// HTTP.
type deployment struct {
	dataDir string
	opts    server.RegistryOptions
	reg     *server.Registry
	hs      *http.Server
	served  chan error
	url     string
	fol     *server.Registry
}

// deploy generates the seed graph, bootstraps a durable leader registry in
// a new directory under dataRoot, serves it on a loopback port and waits
// until a follower registry has caught up with every store.
func deploy(cfg *config, dataRoot string) (*deployment, error) {
	dir, err := os.MkdirTemp(dataRoot, "provd-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dataDir: dir}
	// provd's defaults: group commit and the fsync coalescer are on unless
	// disabled.
	d.opts = server.RegistryOptions{
		DataDir:         dir,
		Fsync:           wal.SyncAlways,
		CheckpointEvery: cfg.Provd.CheckpointEvery,
		CacheCap:        cfg.Provd.CacheCapacity,
	}
	seed := gen.Pd(gen.PdConfig{N: cfg.Graph.Vertices, Seed: cfg.Graph.Seed})
	reg, _, err := server.OpenRegistry(d.opts, []string{freshStore}, func() (*prov.Graph, error) { return seed, nil })
	if err != nil {
		_ = os.RemoveAll(dir) // nothing else owns it yet
		return nil, fmt.Errorf("open leader: %w", err)
	}
	d.reg = reg
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: server.NewMultiServer(reg)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()

	fol, err := server.OpenFollower(server.FollowerOptions{
		LeaderURL:        d.url,
		CacheCap:         cfg.Provd.CacheCapacity,
		ReconnectBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("open follower: %w", err)
	}
	d.fol = fol
	if err := d.caughtUp(30 * time.Second); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// leader returns a leader store by name.
func (d *deployment) leader(name string) *server.Store {
	st, err := d.reg.Get(name)
	if err != nil {
		panic(err) // every store in storeNames is opened by deploy
	}
	return st
}

// follower returns the follower's replica of a store.
func (d *deployment) follower(name string) (*server.Store, error) {
	return d.fol.Get(name)
}

// caughtUp waits until every follower store has applied its leader's
// current epoch and holds the same vertex and edge counts.
func (d *deployment) caughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, name := range storeNames {
		for {
			want := d.leader(name).Epoch()
			fst, err := d.follower(name)
			if err == nil {
				got := fst.Epoch()
				if got.N == want.N && got.Vertices == want.Vertices && got.Edges == want.Edges {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower store %q did not catch up with epoch %d within %v", name, want.N, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stopServing closes the follower and the HTTP server, leaving the leader
// registry open.
func (d *deployment) stopServing() {
	if d.fol != nil {
		d.fol.Close() // memory-only replicas: nothing to flush
		d.fol = nil
	}
	if d.hs != nil {
		// Close, not Shutdown: the follower's tailing wal streams never go
		// idle on their own.
		d.hs.Close()
		if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
		d.hs = nil
	}
}

// close tears everything down and removes the data directory.
func (d *deployment) close() {
	d.stopServing()
	if d.reg != nil {
		if err := d.reg.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close leader: %v\n", err)
		}
		d.reg = nil
	}
	if err := os.RemoveAll(d.dataDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// storeState is a store's published watermark.
type storeState struct {
	Epoch           uint64
	Vertices, Edges int
}

func stateOf(st *server.Store) storeState {
	ep := st.Epoch()
	return storeState{ep.N, ep.Vertices, ep.Edges}
}

// reopen closes the leader and opens its data directory again, returning
// each store's recovered state; the reopened registry is closed again.
func (d *deployment) reopen() (map[string]storeState, error) {
	d.stopServing()
	if err := d.reg.Close(); err != nil {
		return nil, fmt.Errorf("close leader: %w", err)
	}
	d.reg = nil
	reg, _, err := server.OpenRegistry(d.opts, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("reopen leader: %w", err)
	}
	defer reg.Close()
	out := map[string]storeState{}
	for _, name := range storeNames {
		st, err := reg.Get(name)
		if err != nil {
			return nil, fmt.Errorf("reopen leader: %w", err)
		}
		out[name] = stateOf(st)
	}
	return out, nil
}

// httpClient returns a client holding at most one connection, so a
// closed-loop client or an open-loop sender is exactly one connection.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}
