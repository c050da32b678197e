package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// Span names. An HTTP span is the parent of the spans that replay the
// store's work for the same request; its self time is what HTTP, routing
// and the JSON codec add on top.
const (
	spanHTTP       = "http."             // + endpoint
	spanSegHit     = "store.segment_hit" // Store.Segment served from the cache
	spanSegMiss    = "store.segment_miss"
	spanCoreSeg    = "core.segment"        // core.Engine.Segment on the pinned epoch
	spanClosure    = "core.closure"        // both AncestryClosure calls
	spanVC2        = "core.vc2"            // Engine.SimilarPaths
	spanPgSum      = "core.pgsum"          // core.Summarize
	spanCypher     = "cypher.query"        // Store.Cypher
	spanPsgNodes   = "core.psg_nodes"      // mark: summary nodes
	spanPsgCompact = "core.psg_compaction" // mark: compaction ratio
)

func toQuery(s segSpec) core.Query {
	return core.Query{Src: ids(s.Src), Dst: ids(s.Dst)}
}

func ids(xs []uint32) []graph.VertexID {
	out := make([]graph.VertexID, len(xs))
	for i, x := range xs {
		out[i] = graph.VertexID(x)
	}
	return out
}

// replayer times each layer from outside by calling its public functions
// on the inputs of a read that just completed, against the epoch the store
// publishes right after the response.
type replayer struct {
	tr *tracer
	st *server.Store
	// storeHits/storeMisses count the replays' own Store.Segment cache
	// lookups, so the cache counters can be corrected for them.
	storeHits, storeMisses atomic.Int64
	// echoMismatch counts responses whose X-Request-ID differs from the
	// one sent.
	echoMismatch atomic.Int64
}

// replay records the HTTP span of res and the layer calls that reproduce
// its work.
func (rp *replayer) replay(res *readResult, cached bool) {
	r := res.req
	if res.echo != res.reqID {
		rp.echoMismatch.Add(1)
	}
	root := rp.tr.add(spanHTTP+r.endpoint, res.reqID, 0, res.start, res.end, float64(res.bytes))
	ep := rp.st.Epoch()
	switch r.endpoint {
	case epSegment:
		// Time both a cache hit and an engine evaluation; the one the
		// response says the store did is the HTTP span's child.
		q := toQuery(r.seg)
		if cached {
			rp.storeSegment(q, res.reqID, root)
			rp.coreSegment(ep, q, res.reqID, 0)
		} else {
			rp.coreSegment(ep, q, res.reqID, root)
			rp.storeSegment(q, res.reqID, 0) // the read just cached it
		}
	case epSummarize:
		segs := make([]*core.Segment, 0, len(r.sum))
		for _, s := range r.sum {
			q := toQuery(s)
			var seg *core.Segment
			if r.pooled {
				seg = rp.storeSegment(q, res.reqID, root)
			} else {
				seg = rp.coreSegment(ep, q, res.reqID, root)
			}
			if seg == nil {
				return
			}
			segs = append(segs, seg)
		}
		var psg *core.Psg
		id := rp.tr.timed(spanPgSum, res.reqID, root, func() float64 {
			var err error
			if psg, err = core.Summarize(segs, core.SumOptions{}); err != nil {
				return -1
			}
			return float64(psg.InputVertices)
		})
		if psg != nil {
			rp.tr.mark(spanPsgNodes, res.reqID, id, float64(len(psg.Nodes)))
			rp.tr.mark(spanPsgCompact, res.reqID, id, psg.CompactionRatio())
		}
	case epQuery:
		rp.tr.timed(spanCypher, res.reqID, root, func() float64 {
			out, err := rp.st.Cypher(r.query, cypher.Options{})
			if err != nil {
				return -1
			}
			return float64(len(out.Rows))
		})
	}
}

// storeSegment times Store.Segment through the cache.
func (rp *replayer) storeSegment(q core.Query, reqID string, parent int64) *core.Segment {
	start := time.Now()
	seg, hit, err := rp.st.Segment(q, core.Options{}, true)
	end := time.Now()
	if err != nil {
		return nil
	}
	name := spanSegMiss
	if hit {
		name = spanSegHit
		rp.storeHits.Add(1)
	} else {
		rp.storeMisses.Add(1)
	}
	rp.tr.add(name, reqID, parent, start, end, float64(seg.NumVertices()))
	return seg
}

// coreSegment times a direct engine evaluation and, as its children, the
// closure and VC2 steps it is made of; the segment span's self time is
// then the induce step (VC3/VC4 and edge induction).
func (rp *replayer) coreSegment(ep *server.Epoch, q core.Query, reqID string, parent int64) *core.Segment {
	eng := core.NewEngine(ep.P, core.Options{})
	start := time.Now()
	seg, err := eng.Segment(q)
	end := time.Now()
	if err != nil {
		return nil
	}
	id := rp.tr.add(spanCoreSeg, reqID, parent, start, end, float64(seg.NumVertices()))
	rp.tr.timed(spanClosure, reqID, id, func() float64 {
		eng.AncestryClosure(q.Dst, q.Boundary, true)
		eng.AncestryClosure(q.Src, q.Boundary, false)
		return 0
	})
	rp.tr.timed(spanVC2, reqID, id, func() float64 {
		if _, err := eng.SimilarPaths(q); err != nil {
			return -1
		}
		return 0
	})
	return seg
}

// counters is a snapshot of every program counter the per-layer metrics
// difference.
type counters struct {
	at     time.Time
	stores map[string]storeCounters
	repl   map[string]*server.ReplStats
}

type storeCounters struct {
	state  storeState
	cache  server.CacheStats
	freeze server.FreezeStats
	dur    *server.DurabilityStats
	stages map[string]obs.LatencySummary
}

func snapshotCounters(d *deployment) counters {
	c := counters{at: time.Now(), stores: map[string]storeCounters{}, repl: map[string]*server.ReplStats{}}
	for _, name := range storeNames {
		st := d.leader(name)
		c.stores[name] = storeCounters{
			state:  stateOf(st),
			cache:  st.CacheStats(),
			freeze: st.FreezeStatsSnapshot(),
			dur:    st.DurabilityStatsSnapshot(),
			stages: st.StageStats(),
		}
		if fst, err := d.follower(name); err == nil {
			c.repl[name] = fst.ReplStatsSnapshot()
		}
	}
	return c
}
