// Command perfbench is provd's benchmark. It stands up provd in this
// process from internal/server — a durable leader registry with provd's
// defaults and a follower registry replicating it over loopback HTTP —
// drives it over HTTP with one seeded workload, checks the responses
// against direct evaluations before it reports any timing, and prints one
// JSON result line.
//
//	perfbench --workload explore|dashboard --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: after every read it replays the read's work through
// the layers' public functions, keeps spans in memory and writes them to
// .bench_out/ at exit. --steady N runs the workload N times with seeds
// 1..N and reports each metric's median and spread against the bounds in
// BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/prov"
	"repro/internal/server"
)

// outDir holds data directories and traces, under the checkout.
const outDir = ".bench_out"

func main() {
	workload := flag.String("workload", "", "workload to run: explore or dashboard")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds 1..N) and report each metric's spread")
	flag.Parse()

	cfg, err := loadConfig()
	if err != nil {
		fatal(err)
	}
	wc, ok := cfg.Workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *steady > 0 {
		if err := runSteady(*workload, *steady, *seconds, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}
	r := &runner{cfg: cfg, wc: wc, name: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}
	res, err := r.run()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 9

// plan is a workload's seeded inputs.
type plan struct {
	warm, gate []*readReq
	reads      *readStream
	readers    int
	// streams are the check-in probe's batches, one stream per store.
	streams []*ingestStream
}

// newPlan generates a workload's inputs. A stream of distinct reads is
// finite: it is generated before set-up, prefill_per_s reads per measured
// second, so no client ever waits on generating one while it is timed.
func newPlan(cfg *config, name string, wc workloadConfig, seedGraph *prov.Graph, seed int64, seconds float64) *plan {
	l := newLineage(seedGraph)
	rng := rand.New(rand.NewSource(seed + 1))
	p := &plan{readers: wc.Clients, streams: []*ingestStream{
		newIngestStream(server.DefaultStore, seedGraph, 0),
		newIngestStream(freshStore, nil, cfg.CheckinBatches),
	}}
	switch name {
	case "explore":
		dr := newDistinctReads(l, seed)
		for i := 0; i < wc.WarmReads; i++ {
			p.warm = append(p.warm, dr.read(pickMix(rng, wc.Mix)))
		}
		p.gate = newPool(dr, wc.GatePool).all()
		eps := make([]string, int(wc.PrefillPerSecond*seconds))
		var nsum int
		for i := range eps {
			if eps[i] = pickMix(rng, wc.Mix); eps[i] == epSummarize {
				nsum++
			}
		}
		sums := dr.summaries(nsum, seed)
		p.reads = &readStream{}
		for _, ep := range eps {
			if ep == epSummarize {
				p.reads.buf = append(p.reads.buf, sums[0])
				sums = sums[1:]
				continue
			}
			p.reads.buf = append(p.reads.buf, dr.read(ep))
		}
	case "dashboard":
		// The pool comes from the workload's recorded pool seed, so --seed
		// varies the order of the reads and the writes, not which reads
		// the pool holds.
		pl := newPool(newDistinctReads(l, wc.PoolSeed), wc.Pool)
		p.warm, p.gate = pl.all(), pl.all()
		p.reads = &readStream{next: func() *readReq {
			list := pl[pickMix(rng, wc.Mix)]
			return list[rng.Intn(len(list))]
		}}
	}
	return p
}

type runner struct {
	cfg     *config
	wc      workloadConfig
	name    string
	seed    int64
	seconds int
	traced  bool
}

// runInfo is printed on the line before the result: the environment and
// what the run did, for the record.
type runInfo struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Env      environment    `json:"env"`
	Samples  map[string]int `json:"samples"`
	// ReadSeconds is the length of the untraced read phase; it is shorter
	// than Seconds when the clients sent every prefilled distinct read.
	ReadSeconds float64 `json:"read_s"`
	// LittleGap compares the closed-loop read rate with clients divided by
	// the mix-weighted mean read latency (their relative difference).
	LittleGap float64 `json:"little_gap"`
	TraceFile string  `json:"trace_file,omitempty"`
	// Thin lists layer percentiles with fewer than minBeyond samples
	// beyond them.
	Thin []string `json:"thin,omitempty"`
	// Plan is the time spent generating inputs before set-up (not timed).
	Plan float64 `json:"plan_s"`
	// Setups are the set-up rounds' times in ascending order; setup_s is
	// their median.
	Setups []float64 `json:"setup_rounds_s"`
	// MeanMS and TimeShare give each read endpoint's mean latency and its
	// share of the clients' busy time.
	MeanMS    map[string]float64 `json:"mean_ms,omitempty"`
	TimeShare map[string]float64 `json:"time_share,omitempty"`
	// IngestMS records the check-in probe's ingest latencies. They follow
	// the shared disk's fsync latency, which spread 0.05-0.44 run to run
	// (IQR over median) on a 2-vCPU ext4 host, beyond any bound a
	// regression check could use; the traced run reports them as
	// loadgen.ingest_p50_ms and loadgen.ingest_p99_ms.
	IngestMS map[string]float64 `json:"ingest_ms,omitempty"`
	// RSSBeforeGates is VmHWM before the replica and recovery gates, and
	// RSSAfterGates after them; rss_peak_mb reports the former.
	RSSBeforeGates float64 `json:"rss_before_gates_mb"`
	RSSAfterGates  float64 `json:"rss_after_gates_mb"`
}

func (r *runner) run() (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	seedGraph := gen.Pd(gen.PdConfig{N: r.cfg.Graph.Vertices, Seed: r.cfg.Graph.Seed})
	planStart := time.Now()
	p := newPlan(r.cfg, r.name, r.wc, seedGraph, r.seed, float64(r.seconds))
	planSecs := time.Since(planStart).Seconds()

	// Set up several times and keep the last deployment; setup_s is the
	// median, so one slow disk flush does not move it.
	var setups []float64
	var d *deployment
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.close()
			// Collect the closed deployment, so every round starts from
			// the same heap.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if d, err = deploy(r.cfg, outDir); err != nil {
			return nil, err
		}
		if err := warm(d, p.warm); err != nil {
			d.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	setup := median(setups) // sorts setups

	fail := func(err error) (*result, error) {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: %v\n", err)
		return &result{Correct: false, Attempted: 1, Failed: 0, Metrics: map[string]metric{}}, nil
	}
	if err := checkReads(d, p.gate); err != nil {
		return fail(err)
	}
	flushDisk()
	// rss_peak_mb is the peak while serving: the deployments set-up
	// closed are collected and the peak is reset to the resident set
	// that serving starts from.
	runtime.GC()
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		return nil, errors.New("cannot reset the peak resident set size (/proc/self/clear_refs)")
	}

	m := &measurement{r: r, d: d, p: p}
	m.measure()
	// The peak while serving, before the gates reopen the data directory.
	rss := peakRSSMB()

	if m.rp != nil && m.rp.echoMismatch.Load() > 0 {
		return fail(fmt.Errorf("%d responses did not echo their X-Request-ID", m.rp.echoMismatch.Load()))
	}
	if err := checkReplicas(d); err != nil {
		return fail(err)
	}
	if err := m.w.lagErr(); err != nil {
		return fail(err)
	}
	coalescer := "none"
	if ds := d.leader(server.DefaultStore).DurabilityStatsSnapshot(); ds != nil && ds.Coalescer != nil {
		coalescer = ds.Coalescer.Mode
	}
	info := runInfo{
		Workload: r.name, Seed: r.seed, Seconds: r.seconds, Trace: r.traced,
		Env:            gatherEnv(".", d.dataDir, d.opts.Fsync.String(), coalescer),
		Plan:           planSecs,
		Setups:         setups,
		ReadSeconds:    m.readSecs,
		RSSBeforeGates: rss,
	}
	if err := checkRecovery(d, m.w.acked); err != nil {
		return fail(err)
	}
	info.RSSAfterGates = peakRSSMB()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var err error
	if r.traced {
		err = m.layerMetrics(res, &info)
	} else {
		err = m.endToEnd(res, setup, rss, &info)
	}
	if err != nil {
		return nil, err
	}
	if line, err := json.Marshal(info); err == nil {
		fmt.Println(string(line))
	}
	return res, nil
}

// warm sends each read once over one connection and requires success.
func warm(d *deployment, reads []*readReq) error {
	hc := httpClient()
	defer hc.CloseIdleConnections()
	for _, r := range reads {
		method := "POST"
		if r.body == nil {
			method = "GET"
		}
		status, _, data, _, err := send(hc, method, d.url+r.path, r.body, "", false)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.endpoint, err)
		}
		if !ok2xx(status) {
			return fmt.Errorf("warm-up %s: status %d %s", r.endpoint, status, data)
		}
	}
	return nil
}

// measurement is one timed phase (and, traced, an untraced phase before
// it) with the counters around it.
type measurement struct {
	r *runner
	d *deployment
	p *plan
	w *writer

	c0, c1     counters
	readOuts   []outcome // untraced reads
	readSecs   float64   // length of the untraced read phase
	tracedOuts []outcome // traced reads
	writeOuts  []outcome // every ingest
	rp         *replayer // traced runs
}

// phases returns the length of the untraced read phase and of the whole
// read measurement. A traced run first measures untraced for a third as
// long as its traced phase, to compare HTTP spans with and without
// tracing in one process.
func (r *runner) phases() (untraced, total time.Duration) {
	total = time.Duration(r.seconds) * time.Second
	if !r.traced {
		return total, total
	}
	return total / 3, total + total/3
}

func (m *measurement) measure() {
	untraced, total := m.r.phases()
	var err error
	if m.w, err = newWriter(m.d, m.r.seed+2, m.p.streams); err != nil {
		panic(err) // deploy opened every follower store
	}

	m.c0 = snapshotCounters(m.d)
	start := time.Now()
	m.readOuts = closedLoop(m.d.url, m.p.readers, start.Add(untraced), m.p.reads, m.r.name, false, nil)
	m.readSecs = time.Since(start).Seconds()
	if m.r.traced {
		m.rp = &replayer{tr: newTracer(), st: m.d.leader(server.DefaultStore)}
		m.tracedOuts = closedLoop(m.d.url, m.p.readers, start.Add(total), m.p.reads, m.r.name+"-t", true, func(res *readResult) {
			m.rp.replay(res, res.req.endpoint == epSegment && cachedReply(res.body))
		})
	}
	// The check-in probe runs once the reads have stopped.
	probe := m.r.cfg.Probe
	probeStart := time.Now()
	probeEnd := probeStart.Add(time.Duration(probe.Seconds * float64(time.Second)))
	m.writeOuts = openLoop(wallClock, probeStart, probe.Rate, probeEnd, epIngest, m.w.do)
	m.w.wait()
	m.c1 = snapshotCounters(m.d)
}

// cachedReply reports whether a /segment reply says it came from the
// cache; the flag is the last field, so only the tail is searched.
func cachedReply(body []byte) bool {
	if len(body) > 64 {
		body = body[len(body)-64:]
	}
	return bytes.Contains(body, []byte(`"cached":true`))
}

// endToEnd fills the end-to-end metrics of an untraced run.
func (m *measurement) endToEnd(res *result, setup, rss float64, info *runInfo) error {
	reads, writes := newTally(m.readOuts), newTally(m.writeOuts)
	res.Attempted = reads.attempted + writes.attempted
	res.Failed = reads.failed + writes.failed
	okReads := reads.attempted - reads.failed
	readOps := float64(okReads) / m.readSecs
	info.Samples = map[string]int{}
	for ep, xs := range reads.lat {
		info.Samples[ep] = len(xs)
	}
	info.Samples[epIngest] = len(writes.lat[epIngest])
	info.IngestMS = map[string]float64{}
	for name, q := range map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99} {
		info.IngestMS[name], _ = percentile(append([]float64(nil), writes.lat[epIngest]...), q)
	}
	info.Samples["repl_lag"] = len(m.w.lags)
	info.LittleGap = littleGap(reads, m.p.readers, readOps)
	info.MeanMS, info.TimeShare = map[string]float64{}, map[string]float64{}
	busy := 0.0
	for ep, xs := range reads.lat {
		info.MeanMS[ep] = reads.mean(ep)
		busy += reads.mean(ep) * float64(len(xs))
	}
	for ep, xs := range reads.lat {
		info.TimeShare[ep] = reads.mean(ep) * float64(len(xs)) / busy
	}

	var missing []string
	put := func(name, unit string, v float64, ok bool) {
		if !ok {
			missing = append(missing, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	pct := func(name string, xs []float64, q float64) {
		v, ok := percentile(append([]float64(nil), xs...), q)
		put(name, "ms", v, ok)
	}
	put("setup_s", "s", setup, true)
	put("read_ops_s", "1/s", readOps, okReads > 0)
	pct("segment_p50_ms", reads.lat[epSegment], 0.50)
	pct("segment_p99_ms", reads.lat[epSegment], 0.99)
	pct("summarize_p50_ms", reads.lat[epSummarize], 0.50)
	pct("summarize_p90_ms", reads.lat[epSummarize], 0.90)
	pct("query_p50_ms", reads.lat[epQuery], 0.50)
	put("rss_peak_mb", "MiB", rss, rss > 0)
	if len(missing) > 0 {
		return fmt.Errorf("too few samples to report %s (samples: %v)", strings.Join(missing, ", "), info.Samples)
	}
	return nil
}

// littleGap is the relative difference between the measured closed-loop
// read rate and clients divided by the mean read latency, which Little's
// law says it should equal when every client is always waiting on a read.
func littleGap(t *tally, clients int, measured float64) float64 {
	var sum float64
	var n int
	for ep, xs := range t.lat {
		sum += t.mean(ep) * float64(len(xs))
		n += len(xs)
	}
	if n == 0 || measured == 0 {
		return 0
	}
	predicted := float64(clients) / (sum / float64(n) / 1000)
	return (measured - predicted) / measured
}

// runSteady runs the workload n times with seeds 1..n as child processes
// and prints each metric's median, interquartile range over median, and
// whether that spread is within the metric's bound in BENCHMARK.json (and
// within a third of it, the margin the benchmark aims for).
func runSteady(workload string, n, seconds int, traced bool) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	values := map[string][]float64{}
	for s := 1; s <= n; s++ {
		res, err := runChild(exe, workload, s, seconds, trace)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		for name, mv := range res.Metrics {
			values[name] = append(values[name], mv.Value)
		}
		fmt.Fprintf(os.Stderr, "perfbench: steady %s seed %d done\n", workload, s)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %12s %8s %6s %-12s %s\n", "metric", "median", "iqr/med", "bound", "verdict", "values by seed")
	for _, name := range names {
		xs := values[name]
		sp := spread(xs)
		verdict := "-"
		if b, ok := bounds[name]; ok {
			switch {
			case sp <= b/3:
				verdict = "steady"
			case sp <= b:
				verdict = "within bound"
			default:
				verdict = "TOO WIDE"
			}
			fmt.Printf("%-34s %12.4f %8.4f %6.3f %-12s %s\n", name, median(append([]float64(nil), xs...)), sp, b, verdict, fmtValues(xs))
			continue
		}
		fmt.Printf("%-34s %12.4f %8.4f %6s %-12s %s\n", name, median(append([]float64(nil), xs...)), sp, "", verdict, fmtValues(xs))
	}
	return nil
}

func fmtValues(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func runChild(exe, workload string, seed, seconds int, trace string) (*result, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, errors.New("run reported incorrect output")
	}
	return &res, nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
