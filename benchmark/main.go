// Command benchmark measures the nodedp daemon end to end and layer by
// layer on three fixed-work workloads; see README.md.
//
//	go run . --workload solve-giant --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is traced and the metrics
// are the per-layer ones. --selfcheck runs the determinism self-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"nodedp/internal/forestlp"
)

// A run sets up (boots the daemon, connects the clients and runs the
// workload's setup requests) at least minSetups times and until setupWall
// has passed, so that a set-up of a millisecond is still a median over
// hundreds; setup_s is the median.
const (
	minSetups = 15
	setupWall = time.Second
)

// The percentile each *_tail_ms metric reports: p90 for uploads; p75 for
// deltas and queries, whose p90 follows the machine's stalls (the
// hypervisor's steal time) more than the program: over ten runs in an
// hour with seconds of steal per run, the one-client workloads' query p90
// spread 0.22–0.23 (interquartile range over median) and their p50 0.06
// (see README).
const (
	ttfrTail  = 0.90
	deltaTail = 0.75
	queryTail = 0.75
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "solve-giant, ingest-sparse or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 0, "the runner's nominal run length; runs do a fixed amount of work and are never cut short")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the determinism self-check instead of a measurement")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.Parse()
	gen, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(gen, *seed)
	case *trace == 1:
		err = tracedRun(gen, *seed, *seconds, *traceDir)
	default:
		err = untracedRun(gen, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// setUp boots the daemon, connects the clients and runs the workload's
// setup requests, at least repeats times and, when repeats > 1, until
// setupWall has passed; it keeps the last pass and returns the median
// time and the number of set-ups. The inputs are made once, before the
// clock starts: setup_s is the daemon's set-up, not the benchmark's.
func setUp(w *workload, tr *tracer, repeats int) (*pass, float64, int, error) {
	var times []float64
	var p *pass
	begin := time.Now()
	for k := 0; k < repeats || (repeats > 1 && time.Since(begin) < setupWall); k++ {
		if p != nil {
			p.stop()
			p = nil // so that the collection below frees the old pass
		}
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		var err error
		if p, err = startPass(w, tr); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC() // and so does the timed window
	return p, median(times), len(times), nil
}

func untracedRun(gen func(uint64) *workload, seed uint64, seconds int) error {
	cpuMS, _ := cpuReferenceMS()
	p, setupS, setups, err := setUp(gen(seed), nil, minSetups)
	if err != nil {
		return err
	}
	resetPeakRSS()
	cpu0, steal0 := cpuSeconds(), stealSeconds()
	start := time.Now()
	p.run()
	timed := time.Since(start)
	machine := map[string]float64{
		"timed_wall_s": timed.Seconds(),
		"timed_cpu_s":  cpuSeconds() - cpu0,
		"steal_s":      stealSeconds() - steal0,
	}
	rss := peakRSSMB()
	p.stop()

	ck := p.ck
	p.checkWire(ck)
	newReplay(p.w, nil, ck).verify(p)

	m, samples := e2eMetrics(p)
	m["setup_s"] = metric{setupS, "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	report(p, ck, timed, seconds)
	samples["setup"] = setups
	stamp(p.w, seed, cpuMS, samples, machine)
	return emit(p, ck, m)
}

// e2eMetrics derives the end-to-end metrics from a pass, each over the
// whole run: a percentile pools every sample of its request kind, and a
// throughput is completed operations over the summed wall time of the
// phases that carry them. The machine's speed drifts within a run (see
// README), and a figure taken over a few seconds of the run follows that
// drift; a whole-run figure averages it.
func e2eMetrics(p *pass) (map[string]metric, map[string]int) {
	var ttfr, reopen, delta, query, batch []float64
	var byGraph []string
	var openWall, queryWall time.Duration
	releases := 0
	for pi, ph := range p.w.phases {
		carriesQueries := ph.name == "query" || ph.name == "mix"
		switch {
		case ph.name == "open":
			openWall += p.wall[pi]
		case carriesQueries:
			queryWall += p.wall[pi]
		}
		for c, ops := range ph.clients {
			for i, o := range ops {
				r := &p.res[pi][c][i]
				if r.err != nil {
					continue
				}
				d := ms(r.dur)
				switch o.kind {
				case opOpen:
					ttfr = append(ttfr, d)
					byGraph = append(byGraph, fmt.Sprintf("%s=%.1f", p.w.graphs[o.graph].name, d))
				case opReopen:
					reopen = append(reopen, d)
				case opPatch:
					delta = append(delta, d)
				case opQuery:
					query = append(query, d)
					if carriesQueries {
						releases++
					}
				case opBatch:
					batch = append(batch, d)
					if carriesQueries {
						releases += r.served
					}
				}
			}
		}
	}
	m := map[string]metric{
		"opens_per_s":        {float64(len(ttfr)) / openWall.Seconds(), "1/s"},
		"ttfr_p50_ms":        {median(ttfr), "ms"},
		"ttfr_tail_ms":       {quantile(ttfr, ttfrTail), "ms"},
		"cached_open_p50_ms": {median(reopen), "ms"},
		"delta_p50_ms":       {median(delta), "ms"},
		"delta_tail_ms":      {quantile(delta, deltaTail), "ms"},
		"queries_per_s":      {float64(releases) / queryWall.Seconds(), "1/s"},
		"query_p50_ms":       {median(query), "ms"},
		"query_tail_ms":      {quantile(query, queryTail), "ms"},
		"batch_p50_ms":       {median(batch), "ms"},
	}
	samples := map[string]int{"ttfr": len(ttfr), "cached_open": len(reopen),
		"delta": len(delta), "query": len(query), "batch": len(batch)}
	for name, xs := range map[string][]float64{"ttfr": ttfr, "delta": delta, "query": query} {
		if p := supportedPercentile(len(xs)); p > 50 {
			fmt.Printf("info %s: p%g %.4f ms over the whole run (highest percentile with ten samples beyond it; n=%d)\n", name, p, quantile(xs, p/100), len(xs))
		}
	}
	if len(byGraph) <= 32 {
		fmt.Printf("info ttfr by graph (ms): %s\n", strings.Join(byGraph, " "))
	}
	return m, samples
}

// report prints the per-kind request counts, the output checks, and the
// timed window.
func report(p *pass, ck *checker, timed time.Duration, seconds int) {
	s := p.opStats()
	fmt.Printf("workload %s seed %d: timed window %.2f s, of which %.2f s untimed collections between phases (fixed work; nominal --seconds %d)\n",
		p.w.name, p.w.seed, timed.Seconds(), p.gcWall.Seconds(), seconds)
	for k := range opNames {
		if s.attempted[k] > 0 {
			fmt.Printf("requests %-6s attempted %6d failed %d check-failures %d 429s %d retries %d\n",
				opNames[k], s.attempted[k], s.failed[k], ck.byKind[k], s.shed[k], s.retries[k])
		}
	}
	fmt.Printf("checks: %d failures\n", ck.n)
	for _, f := range ck.first {
		fmt.Println("check failed:", f)
	}
}

// stamp prints the environment: informational, not a metric. machine
// holds what the machine did during the timed window: process CPU time
// against wall time, and the time the hypervisor stole from all vCPUs.
func stamp(w *workload, seed uint64, cpuMS float64, samples map[string]int, machine map[string]float64) {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"workload":   w.name,
		"seed":       seed,
		"inputs":     w.digest(),
		"cpu_ref_ms": cpuMS,
		"samples":    samples,
		"tail":       map[string]float64{"ttfr": 100 * ttfrTail, "delta": 100 * deltaTail, "query": 100 * queryTail},
		"machine":    machine,
	}
	raw, _ := json.Marshal(map[string]any{"env": env}) // plain values: cannot fail
	fmt.Println(string(raw))
}

func emit(p *pass, ck *checker, m map[string]metric) error {
	s := p.opStats()
	out := output{Correct: ck.n == 0, Metrics: m}
	for k := range opNames {
		out.Attempted += s.attempted[k]
		out.Failed += s.failed[k]
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(raw))
	return nil
}

// tracedResult is what a traced run measured.
type tracedResult struct {
	p      *pass
	tr     *tracer
	work   forestlp.Stats
	rp     *replay
	wall   time.Duration
	digest string
}

func traced(gen func(uint64) *workload, seed uint64) (*tracedResult, error) {
	tr := newTracer()
	p, _, _, err := setUp(gen(seed), tr, 1)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p.run()
	wall := time.Since(start)
	p.stop()
	p.checkWire(p.ck)
	rp := newReplay(p.w, tr, p.ck)
	rp.verify(p)
	work, err := layerPass(p, tr, p.ck)
	if err != nil {
		return nil, err
	}
	return &tracedResult{p: p, tr: tr, work: work, rp: rp, wall: wall, digest: seededDigest(p)}, nil
}

// workCounts are the per-layer counts that must repeat exactly for one
// seed.
func (t *tracedResult) workCounts() map[string]float64 {
	st := t.work
	return map[string]float64{
		"forestlp.components":            float64(st.Components),
		"forestlp.fast_path_hits":        float64(st.FastPathHits),
		"forestlp.lp_solves":             float64(st.LPSolves),
		"forestlp.cuts_added":            float64(st.CutsAdded),
		"forestlp.stalled_pieces":        float64(st.StalledPieces),
		"forestlp.incremental_fallbacks": float64(st.IncrementalFallbacks),
		"forestlp.parametric_slides":     float64(st.ParametricSlides),
		"lp.pivots":                      float64(st.SimplexPivots),
		"lp.refactorizations":            float64(st.Refactorizations),
		"maxflow.calls":                  float64(st.MaxFlowCalls),
		"core.subplan_lookups":           float64(t.rp.subHits + t.rp.subMisses),
		"core.subplan_misses":            float64(t.rp.subMisses) / float64(max(t.rp.deltas, 1)),
	}
}

func tracedRun(gen func(uint64) *workload, seed uint64, seconds int, traceDir string) error {
	cpuMS, _ := cpuReferenceMS()
	// The untraced pass first, for the tracing overhead.
	p0, _, _, err := setUp(gen(seed), nil, 1)
	if err != nil {
		return err
	}
	start := time.Now()
	p0.run()
	untracedWall := time.Since(start)
	p0.stop()

	t, err := traced(gen, seed)
	if err != nil {
		return err
	}
	report(t.p, t.p.ck, t.wall, seconds)
	fmt.Printf("tracing overhead: traced timed window %.3f s, untraced %.3f s: %+.2f%% (machine noise included)\n",
		t.wall.Seconds(), untracedWall.Seconds(), 100*(t.wall.Seconds()/untracedWall.Seconds()-1))
	path, err := t.tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", t.p.w.name, seed))
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.tr.spans), path)
	fmt.Printf("seeded-release digest %s, inputs %s\n", t.digest, t.p.w.digest())

	m := layerMetrics(t)
	_, samples := e2eMetrics(t.p)
	stamp(t.p.w, seed, cpuMS, samples, nil)
	return emit(t.p, t.p.ck, m)
}

// layerMetrics turns the spans and counts of a traced run into the
// per-layer metrics, and prints the attribution of each request path.
func layerMetrics(t *tracedResult) map[string]metric {
	all, per := t.tr.byName()
	med := func(name string, scale float64) float64 { return median(all[name]) / scale }
	// self is the median over inputs of a call's time minus the named
	// lower-layer calls on the same input.
	self := func(top string, scale float64, sub ...string) float64 {
		var xs []float64
		for id, d := range per[top] {
			ok := true
			for _, s := range sub {
				v, found := per[s][id]
				ok = ok && found
				d -= v
			}
			if ok {
				xs = append(xs, d)
			}
		}
		return median(xs) / scale
	}
	const msec, usec = 1e6, 1e3
	m := map[string]metric{
		"graph.canonicalize_ms":  {med("graph.canonicalize", msec), "ms"},
		"graph.fingerprint_ms":   {med("graph.fingerprint", msec), "ms"},
		"graph.csr_ms":           {med("graph.csr", msec), "ms"},
		"spanning.forest_ms":     {med("spanning.forest", msec), "ms"},
		"forestlp.plan_ms":       {med("forestlp.plan", msec), "ms"},
		"forestlp.grid_ms":       {med("forestlp.grid", msec), "ms"},
		"core.grid_eval_ms":      {med("core.grid_eval", msec), "ms"},
		"core.cache_lookup_ms":   {med("core.cache_lookup", msec), "ms"},
		"mechanism.release_us":   {med("mechanism.release", usec), "us"},
		"privacy.reserve_ns":     {med("privacy.reserve", 1), "ns"},
		"serve.open_ms":          {med("serve.open", msec), "ms"},
		"serve.query_us":         {med("serve.query", usec), "us"},
		"serve.batch_us":         {med("serve.batch", usec), "us"},
		"serve.delta_ms":         {med("serve.patch", msec), "ms"},
		"httpapi.upload_self_ms": {self("http.open", msec, "serve.open", "graph.canonicalize"), "ms"},
		"httpapi.query_self_us":  {self("http.query", usec, "serve.query"), "us"},
		"httpapi.batch_self_us":  {self("http.batch", usec, "serve.batch"), "us"},
		"httpapi.patch_self_ms":  {self("http.patch", msec, "serve.patch"), "ms"},
	}
	for name, v := range t.workCounts() {
		m[name] = metric{v, "count"}
	}
	lookups := t.rp.subHits + t.rp.subMisses
	m["core.subplan_hit_ratio"] = metric{float64(t.rp.subHits) / float64(max(lookups, 1)), "ratio"}

	var allocs uint64
	queries := 0
	t.p.each(func(o *op, r *result, _ int64) {
		if o.kind == opQuery && r.err == nil {
			allocs += r.allocs
			queries++
		}
	})
	m["httpapi.allocs_per_query"] = metric{float64(allocs) / float64(max(queries, 1)), "count"}
	s := t.p.opStats()
	shed, retries := 0, 0
	for k := range opNames {
		shed += s.shed[k]
		retries += s.retries[k]
	}
	m["httpapi.shed"] = metric{float64(shed), "count"}
	m["client.retries"] = metric{float64(retries), "count"}

	fmt.Printf("sub-plan reuse over %d in-process deltas: %d hits, %d misses of %d lookups\n",
		t.rp.deltas, t.rp.subHits, t.rp.subMisses, lookups)
	attribution := []struct {
		path  string
		lines [][2]any
	}{
		{"upload (cold)", [][2]any{
			{"e2e http.open upload", self("http.open", msec)},
			{"graph (canonicalize+csr+fingerprint)", med("graph.canonicalize", msec) + med("graph.csr", msec) + med("graph.fingerprint", msec)},
			{"forestlp (plan+grid)", med("forestlp.plan", msec) + med("forestlp.grid", msec)},
			{"core self = grid_eval - csr - fingerprint - plan - grid", self("core.grid_eval", msec, "graph.csr", "graph.fingerprint", "forestlp.plan", "forestlp.grid")},
			{"serve self = open - core.grid_eval", self("serve.open", msec, "core.grid_eval")},
			{"unattributed = e2e - serve.open - canonicalize (httpapi+client+transport)", m["httpapi.upload_self_ms"].Value},
		}},
		{"query", [][2]any{
			{"e2e http.query", med("http.query", msec)},
			{"mechanism.release", med("mechanism.release", msec)},
			{"privacy.reserve", med("privacy.reserve", msec)},
			{"serve+core self = serve.query - release - reserve", med("serve.query", msec) - med("mechanism.release", msec) - med("privacy.reserve", msec)},
			{"unattributed = e2e - serve.query (httpapi+client+transport)", m["httpapi.query_self_us"].Value / usec},
		}},
		{"batch", [][2]any{
			{"e2e http.batch", med("http.batch", msec)},
			{"serve.batch", med("serve.batch", msec)},
			{"unattributed = e2e - serve.batch", m["httpapi.batch_self_us"].Value / usec},
		}},
		{"delta", [][2]any{
			{"e2e http.patch", med("http.patch", msec)},
			{"serve.delta", med("serve.patch", msec)},
			{"unattributed = e2e - serve.delta", m["httpapi.patch_self_ms"].Value},
		}},
	}
	for _, a := range attribution {
		fmt.Printf("attribution %s (medians over inputs, ms):\n", a.path)
		for _, l := range a.lines {
			fmt.Printf("  %-75s %10.4f\n", l[0], l[1])
		}
	}
	return m
}

// selfCheck runs two traced runs with one seed and demands identical work
// counts and seeded releases, then checks that the next seed gives
// different inputs.
func selfCheck(gen func(uint64) *workload, seed uint64) error {
	a, err := traced(gen, seed)
	if err != nil {
		return err
	}
	b, err := traced(gen, seed)
	if err != nil {
		return err
	}
	var diffs []string
	ca, cb := a.workCounts(), b.workCounts()
	names := make([]string, 0, len(ca))
	for name := range ca {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("selfcheck %-32s %14.4f %14.4f\n", name, ca[name], cb[name])
		if ca[name] != cb[name] {
			diffs = append(diffs, name)
		}
	}
	fmt.Printf("selfcheck seeded-release digest %s %s\n", a.digest, b.digest)
	if a.digest != b.digest {
		diffs = append(diffs, "seeded-release digest")
	}
	if a.p.ck.n+b.p.ck.n > 0 {
		diffs = append(diffs, fmt.Sprintf("%d output-check failures", a.p.ck.n+b.p.ck.n))
	}
	da, dn := gen(seed).digest(), gen(seed+1).digest()
	fmt.Printf("selfcheck inputs seed %d %s, seed %d %s\n", seed, da, seed+1, dn)
	if da == dn {
		diffs = append(diffs, "seeds give identical inputs")
	}
	if len(diffs) > 0 {
		return fmt.Errorf("selfcheck failed: %s", strings.Join(diffs, ", "))
	}
	fmt.Println("selfcheck: OK")
	return nil
}
