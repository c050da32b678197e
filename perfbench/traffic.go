package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prov"
	"repro/internal/server"
)

// Endpoint names, as they appear in metric names.
const (
	epSegment   = "segment"
	epSummarize = "summarize"
	epQuery     = "query"
	epStats     = "stats"
	epIngest    = "ingest"
)

// segSpec is one PgSeg query: 1–2 sources and one destination entity.
type segSpec struct {
	Src, Dst []uint32
}

func (s segSpec) key() string { return fmt.Sprint(s.Src, s.Dst) }

// readReq is one generated read request and what a gate or a layer replay
// needs to re-evaluate it.
type readReq struct {
	endpoint string
	seg      segSpec   // epSegment
	sum      []segSpec // epSummarize
	query    string    // epQuery
	path     string
	body     []byte // nil for GET
	// pooled marks a request drawn from a fixed pool that warm-up has
	// already sent, so its segments are expected in the cache.
	pooled bool
}

func newSegmentReq(s segSpec) *readReq {
	body, _ := json.Marshal(server.SegmentRequest{Src: s.Src, Dst: s.Dst}) // plain data: cannot fail
	return &readReq{endpoint: epSegment, seg: s, path: "/segment", body: body}
}

func newSummarizeReq(segs []segSpec) *readReq {
	var req server.SummarizeRequest
	for _, s := range segs {
		req.Segments = append(req.Segments, server.SegmentSpec{Src: s.Src, Dst: s.Dst})
	}
	body, _ := json.Marshal(req) // plain data: cannot fail
	return &readReq{endpoint: epSummarize, sum: segs, path: "/summarize", body: body}
}

func newQueryReq(q string) *readReq {
	body, _ := json.Marshal(server.QueryRequest{Query: q}) // plain data: cannot fail
	return &readReq{endpoint: epQuery, query: q, path: "/query", body: body}
}

func newStatsReq() *readReq { return &readReq{endpoint: epStats, path: "/stats"} }

// lineage indexes the seed graph for drawing realistic lineage questions.
type lineage struct {
	p    *prov.Graph // frozen
	eng  *core.Engine
	ents []graph.VertexID // entities in order of being (ascending id)
	// versioned lists artifacts with at least two generated versions, by
	// the id of their latest version; versions maps each to its versions.
	versioned []string
	versions  map[string][]graph.VertexID
	sizes     map[string]int // segment vertex counts by segSpec key
}

func newLineage(p *prov.Graph) *lineage {
	p = p.Freeze()
	l := &lineage{p: p, eng: core.NewEngine(p, core.Options{}), ents: p.Entities(),
		versions: map[string][]graph.VertexID{}, sizes: map[string]int{}}
	for _, e := range l.ents {
		name, ok := p.PG().VertexProp(e, prov.PropFilename).Str()
		if ok && len(p.GeneratorsOf(e, nil)) > 0 {
			l.versions[name] = append(l.versions[name], e)
		}
	}
	for name, vs := range l.versions {
		if len(vs) >= 2 {
			l.versioned = append(l.versioned, name)
		}
	}
	sort.Slice(l.versioned, func(i, j int) bool {
		a, b := l.versions[l.versioned[i]], l.versions[l.versioned[j]]
		return a[len(a)-1] < b[len(b)-1]
	})
	return l
}

// size evaluates a question on the seed graph and returns its segment's
// vertex count, so pools can be stratified by size.
func (l *lineage) size(s segSpec) int {
	if n, ok := l.sizes[s.key()]; ok {
		return n
	}
	seg, err := l.eng.Segment(toQuery(s))
	n := 0
	if err == nil {
		n = seg.NumVertices()
	}
	l.sizes[s.key()] = n
	return n
}

// recent returns an index into a list of n items skewed toward its end
// (the most recent items): the product of two uniforms puts half the
// draws in the newest ~19%.
func recent(rng *rand.Rand, n int) int {
	return n - 1 - int(rng.Float64()*rng.Float64()*float64(n))
}

// walkBack follows wasGeneratedBy then used, hops times, from e. It fails
// when it reaches an entity no activity generated.
func (l *lineage) walkBack(rng *rand.Rand, e graph.VertexID, hops int) (graph.VertexID, bool) {
	for h := 0; h < hops; h++ {
		acts := l.p.GeneratorsOf(e, nil)
		if len(acts) == 0 {
			return 0, false
		}
		ins := l.p.InputsOf(acts[rng.Intn(len(acts))], nil)
		if len(ins) == 0 {
			return 0, false
		}
		e = ins[rng.Intn(len(ins))]
	}
	return e, true
}

// segmentTo draws a lineage question ending at dst: 1–2 sources found 1 to
// maxHops activity hops back.
func (l *lineage) segmentTo(rng *rand.Rand, dst graph.VertexID, maxHops int) (segSpec, bool) {
	var src []uint32
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		s, ok := l.walkBack(rng, dst, 1+rng.Intn(maxHops))
		if ok && s != dst && !containsID(src, uint32(s)) {
			src = append(src, uint32(s))
		}
	}
	if len(src) == 0 {
		return segSpec{}, false
	}
	sort.Slice(src, func(i, j int) bool { return src[i] < src[j] })
	return segSpec{Src: src, Dst: []uint32{uint32(dst)}}, true
}

// segment draws a question whose destination is a recency-skewed entity
// and whose sources lie 1–4 hops back.
func (l *lineage) segment(rng *rand.Rand) segSpec {
	for {
		if s, ok := l.segmentTo(rng, l.ents[recent(rng, len(l.ents))], 4); ok {
			return s
		}
	}
}

// summaryCap bounds a summary's input: the vertex occurrences of its
// segments. PgSum's cost grows much faster than its input (about 5 ms at
// 400 occurrences, 66 ms at 900, 0.5–2.5 s at 2000 on Pd10k), and a
// summary of 2–3 near-whole-graph segments runs for minutes, so questions
// worth summarizing are short traces.
const summaryCap = 500

// summary draws 2–3 one-hop lineage questions whose destinations are
// versions of one artifact, with at most summaryCap input occurrences.
func (l *lineage) summary(rng *rand.Rand) []segSpec {
	for {
		vs := l.versions[l.versioned[recent(rng, len(l.versioned))]]
		k := 2 + rng.Intn(2)
		if k > len(vs) {
			k = len(vs)
		}
		var segs []segSpec
		total := 0
		for _, i := range rng.Perm(len(vs))[:k] {
			if s, ok := l.segmentTo(rng, vs[i], 1); ok && total <= summaryCap {
				segs = append(segs, s)
				total += l.size(s)
			}
		}
		if len(segs) >= 2 && total <= summaryCap {
			return segs
		}
	}
}

// queryTemplates are anchored 1–2-hop lineage lookups around one entity.
var queryTemplates = []string{
	"match (e:E)-[:G]->(a:A) where id(e) in [%d] return a",
	"match (a:A)-[:U]->(e:E) where id(e) in [%d] return a",
	"match (e1:E)-[:G]->(a:A)-[:U]->(e0:E) where id(e1) in [%d] return a, e0",
	"match (e0:E)<-[:U]-(a:A)<-[:G]-(e1:E) where id(e0) in [%d] return a, e1",
}

func (l *lineage) query(rng *rand.Rand) string {
	t := queryTemplates[rng.Intn(len(queryTemplates))]
	return fmt.Sprintf(t, l.ents[recent(rng, len(l.ents))])
}

func containsID(xs []uint32, x uint32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// readStream is a seeded sequence of read requests shared by the clients
// of one closed loop: the sequence is fixed by the seed, only which client
// sends which request depends on timing. A stream is either the finite
// list buf, generated before set-up, or endless draws from next, which
// must be cheap (the clients wait on it while they are timed).
type readStream struct {
	mu   sync.Mutex
	buf  []*readReq
	next func() *readReq
}

// take returns the next read, or nil once a finite stream is exhausted.
func (s *readStream) take() *readReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next != nil {
		return s.next()
	}
	if len(s.buf) == 0 {
		return nil
	}
	r := s.buf[0]
	s.buf = s.buf[1:]
	return r
}

// pickMix draws an endpoint from a mix of shares, in a fixed order so the
// draw depends only on the rng.
func pickMix(rng *rand.Rand, mix map[string]float64) string {
	names := make([]string, 0, len(mix))
	total := 0.0
	for name, w := range mix {
		names = append(names, name)
		total += w
	}
	sort.Strings(names)
	x := rng.Float64() * total
	for _, name := range names {
		if x < mix[name] {
			return name
		}
		x -= mix[name]
	}
	return names[len(names)-1]
}

// distinctReads generates reads none of which repeats a segment query
// (standalone or inside a summary) or a query text already generated, so
// every read misses the segment cache.
type distinctReads struct {
	l    *lineage
	rng  *rand.Rand
	seen map[string]bool
}

func newDistinctReads(l *lineage, seed int64) *distinctReads {
	return &distinctReads{l: l, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (d *distinctReads) fresh(key string) bool {
	if d.seen[key] {
		return false
	}
	d.seen[key] = true
	return true
}

func (d *distinctReads) read(endpoint string) *readReq {
	for {
		switch endpoint {
		case epSegment:
			if s := d.l.segment(d.rng); d.fresh(s.key()) {
				return newSegmentReq(s)
			}
		case epSummarize:
			segs := d.l.summary(d.rng)
			ok := true
			for _, s := range segs {
				ok = ok && !d.seen[s.key()]
			}
			if ok {
				for _, s := range segs {
					d.seen[s.key()] = true
				}
				return newSummarizeReq(segs)
			}
		case epQuery:
			if q := d.l.query(d.rng); d.fresh(q) {
				return newQueryReq(q)
			}
		case epStats:
			return newStatsReq()
		default:
			panic("unknown endpoint " + endpoint)
		}
	}
}

// summaries draws n distinct summaries. Sizing a candidate evaluates its
// segments, so two workers draw in parallel, each from its own seeded rng,
// and each round's draws are merged in a fixed order: the result depends
// only on the seed. Rounds repeat until n summaries are distinct.
func (d *distinctReads) summaries(n int, seed int64) []*readReq {
	const workers = 2
	ls := make([]lineage, workers)
	rngs := make([]*rand.Rand, workers)
	for w := range ls {
		ls[w] = *d.l
		ls[w].sizes = map[string]int{} // the only state a draw writes
		rngs[w] = rand.New(rand.NewSource(seed*workers + int64(w)))
	}
	var reqs []*readReq
	for len(reqs) < n {
		per := (n - len(reqs) + workers - 1) / workers
		drawn := make([][][]segSpec, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					drawn[w] = append(drawn[w], ls[w].summary(rngs[w]))
				}
			}(w)
		}
		wg.Wait()
		reqs = d.addDistinct(reqs, n, drawn)
	}
	return reqs
}

// addDistinct appends to reqs, up to n in all, the drawn summaries none of
// whose segments was seen before, taking the workers' draws in turn.
func (d *distinctReads) addDistinct(reqs []*readReq, n int, drawn [][][]segSpec) []*readReq {
	for i := 0; len(reqs) < n && i < len(drawn[0]); i++ {
		for w := 0; w < len(drawn) && len(reqs) < n && i < len(drawn[w]); w++ {
			segs := drawn[w][i]
			ok := true
			for _, s := range segs {
				ok = ok && !d.seen[s.key()]
			}
			if !ok {
				continue
			}
			for _, s := range segs {
				d.seen[s.key()] = true
			}
			reqs = append(reqs, newSummarizeReq(segs))
		}
	}
	return reqs
}

// pool is a fixed set of reads per endpoint.
type pool map[string][]*readReq

// stratum classes a segment by vertex count: small (at most 100), medium
// (at most 2000) and large. Segment sizes are bimodal, from tens of
// vertices to nearly the whole graph, so a pool drawn without strata would
// put its median in one mode or the other depending on the seed.
func stratum(vertices int) int {
	switch {
	case vertices <= 100:
		return 0
	case vertices <= 2000:
		return 1
	}
	return 2
}

// newPool draws a fixed pool: segments 5/8 small, 3/16 medium and 3/16
// large; summaries 1/4 with at most 150 input occurrences, 3/4 above. The
// strata keep each percentile inside one class, away from a boundary
// where it would flip with the seed.
func newPool(d *distinctReads, sizes map[string]int) pool {
	p := pool{}
	n := sizes[epSegment]
	quota := []int{n - 2*(3*n/16), 3 * n / 16, 3 * n / 16}
	for len(p[epSegment]) < n {
		r := d.read(epSegment)
		if k := stratum(d.l.size(r.seg)); quota[k] > 0 {
			quota[k]--
			p.add(r)
		}
	}
	n = sizes[epSummarize]
	quota = []int{n / 4, n - n/4}
	for len(p[epSummarize]) < n {
		r := d.read(epSummarize)
		total := 0
		for _, s := range r.sum {
			total += d.l.size(s)
		}
		k := 0
		if total > 150 {
			k = 1
		}
		if quota[k] > 0 {
			quota[k]--
			p.add(r)
		}
	}
	for _, ep := range []string{epQuery, epStats} {
		for i := 0; i < sizes[ep]; i++ {
			p.add(d.read(ep))
		}
	}
	return p
}

func (p pool) add(r *readReq) {
	r.pooled = true
	p[r.endpoint] = append(p[r.endpoint], r)
}

func (p pool) all() []*readReq {
	var out []*readReq
	for _, ep := range []string{epSegment, epSummarize, epQuery, epStats} {
		out = append(out, p[ep]...)
	}
	return out
}

// ingestStream generates the lifecycle batches for one store. Batches go
// out one at a time and each is acknowledged before the next is built, so
// the ids a batch references are fixed by the seed.
type ingestStream struct {
	store     string
	ents      []uint32 // known entities, oldest first
	artifacts []string // known artifact names, oldest first
	known     map[string]bool
	checkin   int // first-version snapshot batches still to send
	sent      int
	pending   server.IngestRequest
}

var commands = []string{"clean", "featurize", "train", "evaluate", "plot"}

// agentCount matches the agents gen.Pd creates for 10k vertices
// (floor(ln N) members).
const agentCount = 9

func newIngestStream(store string, p *prov.Graph, checkin int) *ingestStream {
	s := &ingestStream{store: store, checkin: checkin, known: map[string]bool{}}
	if p == nil {
		return s
	}
	for _, e := range p.Entities() {
		s.ents = append(s.ents, uint32(e))
		if name, ok := p.PG().VertexProp(e, prov.PropFilename).Str(); ok {
			s.addArtifact(name)
		}
	}
	return s
}

// next builds the store's next batch. Check-in batches record first
// versions of new datasets (vertex-only); afterwards every batch is one
// run whose inputs are recency-skewed known entities and whose outputs
// are often new versions of known artifacts.
func (s *ingestStream) next(rng *rand.Rand) server.IngestRequest {
	var req server.IngestRequest
	if s.checkin > 0 || len(s.ents) == 0 {
		s.checkin--
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			req.Ops = append(req.Ops, server.IngestOp{Op: "snapshot", Artifact: fmt.Sprintf("%s-ds%d-%d", s.store, s.sent, i)})
		}
	} else {
		op := server.IngestOp{
			Op:      "run",
			Agent:   fmt.Sprintf("member%d", rng.Intn(agentCount)),
			Command: commands[rng.Intn(len(commands))],
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			if in := s.ents[recent(rng, len(s.ents))]; !containsID(op.Inputs, in) {
				op.Inputs = append(op.Inputs, in)
			}
		}
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			name := fmt.Sprintf("%s-out%d-%d", s.store, s.sent, i)
			if len(s.artifacts) > 0 && rng.Float64() < 0.6 {
				name = s.artifacts[recent(rng, len(s.artifacts))]
			}
			if !containsString(op.Outputs, name) {
				op.Outputs = append(op.Outputs, name)
			}
		}
		req.Ops = []server.IngestOp{op}
	}
	s.sent++
	s.pending = req
	return req
}

// ack folds an acknowledged batch's new entities and artifacts into the
// stream's state.
func (s *ingestStream) ack(resp *server.IngestResponse) {
	for i, res := range resp.Results {
		if i >= len(s.pending.Ops) {
			break
		}
		op := s.pending.Ops[i]
		switch op.Op {
		case "snapshot":
			s.ents = append(s.ents, res.ID)
			s.addArtifact(op.Artifact)
		case "run":
			s.ents = append(s.ents, res.Outputs...)
			for _, name := range op.Outputs {
				s.addArtifact(name)
			}
		}
	}
}

func (s *ingestStream) addArtifact(name string) {
	if !s.known[name] {
		s.known[name] = true
		s.artifacts = append(s.artifacts, name)
	}
}

func containsString(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
