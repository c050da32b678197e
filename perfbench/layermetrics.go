package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// layerMetrics fills the per-layer metrics of a traced run: span-derived
// layer times from the traced phase, program-counter differences over the
// whole measurement, and the harness's own checks.
func (m *measurement) layerMetrics(res *result, info *runInfo) error {
	spans := m.rp.tr.snapshot()
	self := selfTimes(spans)
	reads := newTally(m.tracedOuts)
	writes := newTally(m.writeOuts)
	res.Attempted = reads.attempted + writes.attempted + len(m.readOuts)
	res.Failed = reads.failed + writes.failed + newTally(m.readOuts).failed

	// A layer percentile is reported even with fewer than minBeyond
	// samples beyond it (a traced run replays fewer reads than an
	// untraced one serves); such metrics are listed in the run info.
	var missing []string
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	pct := func(name, unit string, xs []float64, q float64) {
		v, ok := percentile(xs, q)
		switch {
		case len(xs) == 0:
			missing = append(missing, name)
		case !ok:
			info.Thin = append(info.Thin, fmt.Sprintf("%s (%d samples)", name, len(xs)))
		}
		put(name, unit, v)
	}
	durMS := func(s span) float64 { return ms(s.dur()) }
	selfMS := func(s span) float64 { return ms(self[s.ID]) }
	val := func(s span) float64 { return s.Value }

	// server: HTTP and codec self time, response size, cache hits.
	pct("server.http.segment_self_ms", "ms", byName(spans, spanHTTP+epSegment, selfMS), 0.5)
	pct("server.http.summarize_self_ms", "ms", byName(spans, spanHTTP+epSummarize, selfMS), 0.5)
	put("server.http.segment_resp_kb", "KiB", mean(byName(spans, spanHTTP+epSegment, val))/1024)
	pct("server.store.segment_hit_ms", "ms", byName(spans, spanSegHit, durMS), 0.5)

	c0, c1 := m.c0, m.c1
	var commits, inval, reval float64
	for _, name := range storeNames {
		a, b := c0.stores[name], c1.stores[name]
		commits += float64(b.state.Epoch - a.state.Epoch)
		inval += float64(b.cache.Invalidations - a.cache.Invalidations)
		reval += float64(b.cache.Revalidations - a.cache.Revalidations)
	}
	def0, def1 := c0.stores[server.DefaultStore].cache, c1.stores[server.DefaultStore].cache
	hits := float64(def1.Hits-def0.Hits) - float64(m.rp.storeHits.Load())
	lookups := hits + float64(def1.Misses-def0.Misses) - float64(m.rp.storeMisses.Load())
	put("server.cache.hit_ratio", "ratio", ratio(hits, lookups))
	put("server.cache.invalidations_per_commit", "count", ratio(inval, commits))
	put("server.cache.revalidations_per_commit", "count", ratio(reval, commits))

	// server: commit pipeline stages, cumulative since boot (boot commits
	// nothing, so they cover the measured writes).
	stage := func(name string) []obs.LatencySummary {
		var out []obs.LatencySummary
		for _, s := range storeNames {
			out = append(out, c1.stores[s].stages[name])
		}
		return out
	}
	put("server.commit.enqueue_p99_ms", "ms", maxP99(stage("enqueue")))
	put("server.commit.append_p50_ms", "ms", weightedP50(stage("append")))
	put("server.commit.fsync_p50_ms", "ms", weightedP50(stage("fsync")))
	put("server.commit.fsync_p99_ms", "ms", maxP99(stage("fsync")))
	put("server.commit.publish_p99_ms", "ms", maxP99(stage("publish")))
	var groups, records, queueNs, fsyncs, walBytes, ckpts, ckptNs, freezeNs, freezeMax float64
	var windows float64
	for _, name := range storeNames {
		a, b := c0.stores[name], c1.stores[name]
		freezeNs += float64(b.freeze.TotalNanos - a.freeze.TotalNanos)
		freezeMax = max(freezeMax, float64(b.freeze.MaxNanos))
		put("graph.freeze_full."+name, "count", float64(b.freeze.Full-a.freeze.Full))
		put("graph.freeze_incremental."+name, "count", float64(b.freeze.Incremental-a.freeze.Incremental))
		if a.dur == nil || b.dur == nil {
			return fmt.Errorf("store %q is not durable", name)
		}
		groups += float64(b.dur.GroupCommit.Groups - a.dur.GroupCommit.Groups)
		records += float64(b.dur.GroupCommit.Records - a.dur.GroupCommit.Records)
		queueNs += float64(b.dur.GroupCommit.QueueWaitTotalNanos - a.dur.GroupCommit.QueueWaitTotalNanos)
		fsyncs += float64(b.dur.Fsyncs - a.dur.Fsyncs)
		walBytes += float64(b.dur.Bytes - a.dur.Bytes)
		ckpts += float64(b.dur.Checkpoints - a.dur.Checkpoints)
		ckptNs += float64(b.dur.CheckpointTotalNanos - a.dur.CheckpointTotalNanos)
		if name == server.DefaultStore && a.dur.Coalescer != nil && b.dur.Coalescer != nil {
			// One coalescer serves every store of the registry.
			windows = float64(b.dur.Coalescer.Windows - a.dur.Coalescer.Windows)
		}
	}
	put("server.commit.records_per_group", "count", ratio(records, groups))
	put("server.commit.queue_wait_ms_per_commit", "ms", ratio(queueNs, commits)/1e6)

	// graph: snapshot freezes after boot.
	put("graph.freeze_ms_per_commit", "ms", ratio(freezeNs, commits)/1e6)
	put("graph.freeze_max_ms", "ms", freezeMax/1e6)

	// wal: device barriers, volume, checkpoints.
	if windows > 0 {
		// Each store counts every window its data crossed; the device
		// saw one barrier per window.
		fsyncs = windows
	}
	put("wal.fsyncs_per_commit", "count", ratio(fsyncs, commits))
	put("wal.bytes_per_ingest_byte", "ratio", ratio(walBytes, float64(m.w.bodyBytes)))
	put("wal.checkpoints", "count", ckpts)
	put("wal.checkpoint_ms", "ms", ratio(ckptNs, ckpts)/1e6)

	// repl: the follower's per-record apply lag and reconnects.
	var lags []obs.LatencySummary
	var reconnects float64
	for _, name := range storeNames {
		a, b := c0.repl[name], c1.repl[name]
		if a == nil || b == nil {
			return fmt.Errorf("follower store %q has no repl stats", name)
		}
		lags = append(lags, b.Lag)
		reconnects += float64(b.Reconnects - a.Reconnects)
	}
	put("repl.apply_lag_p50_ms", "ms", weightedP50(lags))
	put("repl.apply_lag_p99_ms", "ms", maxP99(lags))
	put("repl.reconnects", "count", reconnects)
	// From the leader's ack to the follower's WaitEpoch(token) returning.
	pct("repl.ack_to_visible_p50_ms", "ms", m.w.lags, 0.5)
	pct("repl.ack_to_visible_p99_ms", "ms", m.w.lags, 0.99)

	// core: PgSeg replays and their closure/VC2/induce parts.
	pct("core.segment_p50_ms", "ms", byName(spans, spanCoreSeg, durMS), 0.5)
	pct("core.segment_p99_ms", "ms", byName(spans, spanCoreSeg, durMS), 0.99)
	pct("core.closure_ms", "ms", byName(spans, spanClosure, durMS), 0.5)
	pct("core.vc2_p50_ms", "ms", byName(spans, spanVC2, durMS), 0.5)
	pct("core.vc2_p99_ms", "ms", byName(spans, spanVC2, durMS), 0.99)
	pct("core.induce_ms", "ms", byName(spans, spanCoreSeg, selfMS), 0.5)
	pct("core.segment_vertices_p50", "count", byName(spans, spanCoreSeg, val), 0.5)
	pct("core.segment_vertices_p99", "count", byName(spans, spanCoreSeg, val), 0.99)

	// core: PgSum.
	pct("core.pgsum_p50_ms", "ms", byName(spans, spanPgSum, durMS), 0.5)
	pct("core.pgsum_p90_ms", "ms", byName(spans, spanPgSum, durMS), 0.9)
	pct("core.pgsum_input_vertices", "count", byName(spans, spanPgSum, val), 0.5)
	pct("core.psg_nodes", "count", byName(spans, spanPsgNodes, val), 0.5)
	pct("core.psg_compaction", "ratio", byName(spans, spanPsgCompact, val), 0.5)

	// cypher.
	pct("cypher.query_ms", "ms", byName(spans, spanCypher, durMS), 0.5)
	pct("cypher.rows", "count", byName(spans, spanCypher, val), 0.5)

	// Ingest latency from due time (the end-to-end run bounds only its
	// first quartile).
	pct("loadgen.ingest_p50_ms", "ms", writes.lat[epIngest], 0.5)
	pct("loadgen.ingest_p99_ms", "ms", writes.lat[epIngest], 0.99)

	// The harness itself: open-loop lateness, failures, tracing overhead.
	pct("loadgen.late_p99_ms", "ms", writes.late, 0.99)
	put("loadgen.error_frac", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	untracedMean := meanLatency(newTally(m.readOuts))
	put("trace.overhead_frac", "ratio", ratio(meanLatency(reads)-untracedMean, untracedMean))

	info.Samples = map[string]int{}
	for ep, xs := range reads.lat {
		info.Samples[ep] = len(xs)
	}
	info.Samples[spanCoreSeg] = len(byName(spans, spanCoreSeg, val))
	info.Samples[spanPgSum] = len(byName(spans, spanPgSum, val))
	info.TraceFile = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d-%d.json", m.r.name, m.r.seed, time.Now().UnixNano()))
	if err := writeTrace(info.TraceFile, spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
	}
	if len(missing) > 0 {
		return fmt.Errorf("no samples to report %s", strings.Join(missing, ", "))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanLatency is the mean latency of every successful read, in ms.
func meanLatency(t *tally) float64 {
	var all []float64
	for _, xs := range t.lat {
		all = append(all, xs...)
	}
	return mean(all)
}

// weightedP50 combines per-store histogram medians, weighted by sample
// count (a histogram digest cannot be merged exactly), in ms.
func weightedP50(ss []obs.LatencySummary) float64 {
	var sum, n float64
	for _, s := range ss {
		sum += float64(s.P50Nanos) * float64(s.Count)
		n += float64(s.Count)
	}
	return ratio(sum, n) / 1e6
}

// maxP99 is the largest per-store p99, in ms.
func maxP99(ss []obs.LatencySummary) float64 {
	var m int64
	for _, s := range ss {
		if s.Count > 0 && s.P99Nanos > m {
			m = s.P99Nanos
		}
	}
	return float64(m) / 1e6
}
