package main

// Driving the daemon over HTTP: httpapi.New with the default Config on a
// loopback listener, driven through internal/client by closed-loop
// clients, one connection each.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodedp/internal/client"
	"nodedp/internal/httpapi"
)

// result is what one scripted op observed.
type result struct {
	dur      time.Duration // whole op; for opOpen, upload plus first query
	err      error
	fp       string
	cacheHit bool
	added    int
	removed  int
	served   int                      // releases returned
	rels     []*httpapi.QueryResponse // seeded releases only: opOpen (first query), opQuery: 1; opBatch: one per item, nil where unseeded
	retries  int
	allocs   uint64 // opQuery in a traced pass: heap objects allocated process-wide during the call
}

// rtCounter counts 429 responses per request kind at the transport.
type rtCounter struct {
	base http.RoundTripper
	shed [len(opNames)]atomic.Int64
}

func (c *rtCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		c.shed[requestKind(req)].Add(1)
	}
	return resp, err
}

func requestKind(req *http.Request) opKind {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPatch:
		return opPatch
	case req.Method == http.MethodDelete:
		return opDelete
	case strings.HasSuffix(p, "/query"):
		return opQuery
	case strings.HasSuffix(p, "/batch"):
		return opBatch
	default:
		return opOpen
	}
}

// pass is one execution of a workload's script against a fresh daemon.
type pass struct {
	w        *workload
	hs       *http.Server
	served   chan error
	clients  []*client.Client
	rt       []*rtCounter
	sessions [][]string // per slot: the session IDs it opened
	setupRes []result
	res      [][][]result // [phase][client][op]
	wall     []time.Duration
	gcWall   time.Duration // spent in the untimed collections between phases
	ck       *checker
	tr       *tracer // nil when untraced
}

// startPass boots the daemon, connects the clients and runs the workload's
// setup ops. It is the part of a run that setup_s measures.
func startPass(w *workload, tr *tracer) (*pass, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	p := &pass{
		w:        w,
		hs:       &http.Server{Handler: httpapi.New(httpapi.Config{})},
		served:   make(chan error, 1),
		sessions: make([][]string, w.slots),
		tr:       tr,
		ck:       &checker{},
	}
	go func() { p.served <- p.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < w.clients; i++ {
		rt := &rtCounter{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		p.rt = append(p.rt, rt)
		p.clients = append(p.clients, client.New(base, client.Options{
			HTTPClient: &http.Client{Transport: rt},
			JitterSeed: w.seed + uint64(i),
			IDPrefix:   fmt.Sprintf("c%d", i),
		}))
		// Connect: each client opens its keep-alive connection with a
		// liveness probe, so the timed window starts connected.
		if err := probe(&http.Client{Transport: rt}, base+"/healthz"); err != nil {
			p.stop()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	p.setupRes = make([]result, len(w.setup))
	for i := range w.setup {
		p.do(0, &w.setup[i], &p.setupRes[i], -1-int64(i))
		if err := p.setupRes[i].err; err != nil {
			p.stop()
			return nil, fmt.Errorf("setup %s of slot %d: %w", w.setup[i].kind, w.setup[i].slot, err)
		}
	}
	return p, nil
}

// probe GETs url and demands 200, reading the body so the connection
// stays open for reuse.
func probe(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: %s", resp.Status)
	}
	return nil
}

// run executes the timed phases. Phases run one after another; within a
// phase every client runs its op list concurrently in a closed loop.
func (p *pass) run() {
	p.res = make([][][]result, len(p.w.phases))
	p.wall = make([]time.Duration, len(p.w.phases))
	for pi, ph := range p.w.phases {
		p.res[pi] = make([][]result, len(ph.clients))
		// Untimed: collect the garbage earlier phases left, so a phase
		// does not pay for the one before it.
		if ph.name != "delete" {
			g0 := time.Now()
			runtime.GC()
			p.gcWall += time.Since(g0)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for c, ops := range ph.clients {
			p.res[pi][c] = make([]result, len(ops))
			if len(ops) == 0 {
				continue
			}
			wg.Add(1)
			go func(c int, ops []op, out []result) {
				defer wg.Done()
				for i := range ops {
					p.do(c, &ops[i], &out[i], traceID(pi, c, i))
				}
			}(c, ops, p.res[pi][c])
		}
		wg.Wait()
		p.wall[pi] = time.Since(start)
	}
}

// traceID names one scripted op; the HTTP spans of the op and the
// in-process layer spans on the same input share it.
func traceID(phase, client, i int) int64 {
	return int64(phase)<<32 | int64(client)<<24 | int64(i)
}

func (p *pass) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.hs.Shutdown(ctx) // best effort: the benchmark is done with the daemon either way
	<-p.served
	for _, rt := range p.rt {
		rt.base.(*http.Transport).CloseIdleConnections()
	}
}

func (p *pass) retries(c int, before client.Stats) int {
	after := p.clients[c].Stats()
	return int((after.Attempts - before.Attempts) - (after.Calls - before.Calls))
}

// do runs one op on client c and records what it observed.
func (p *pass) do(c int, o *op, r *result, id int64) {
	ctx := context.Background()
	cl := p.clients[c]
	before := cl.Stats()
	start := time.Now()
	switch o.kind {
	case opOpen, opReopen:
		gs := p.w.graphs[o.graph]
		req := httpapi.CreateSessionRequest{Tenant: o.tenant, N: gs.n, Edges: gs.edges, Budget: o.budget, Accountant: o.acct, Delta: o.delta}
		if o.kind == opReopen {
			req.Budget, req.Accountant, req.Delta = bigBudget, "sequential", 0
		}
		sp := p.tr.start(id, "http."+o.kind.String())
		resp, err := cl.CreateSession(ctx, req)
		sp.end()
		if err != nil {
			r.err = err
			break
		}
		p.sessions[o.slot] = append(p.sessions[o.slot], resp.SessionID)
		r.fp, r.cacheHit = resp.Fingerprint, resp.CacheHit
		if o.kind == opOpen {
			sp := p.tr.start(id, "http.first_query")
			q, err := cl.Query(ctx, resp.SessionID, o.query)
			sp.end()
			if r.err = err; err == nil {
				p.keep(r, o.kind, []httpapi.QueryRequest{o.query}, []*httpapi.QueryResponse{q})
			}
		}
	case opPatch:
		sid, err := p.session(o.slot)
		if err != nil {
			r.err = err
			break
		}
		sp := p.tr.start(id, "http.patch")
		resp, err := cl.Patch(ctx, sid, httpapi.PatchRequest{Adds: o.adds, Removes: o.removes})
		sp.end()
		if r.err = err; err == nil {
			r.fp, r.added, r.removed = resp.Fingerprint, resp.Added, resp.Removed
		}
	case opQuery:
		sid, err := p.session(o.slot)
		if err != nil {
			r.err = err
			break
		}
		var a0 uint64
		if p.tr != nil {
			a0 = heapAllocs()
		}
		sp := p.tr.start(id, "http.query")
		q, err := cl.Query(ctx, sid, o.query)
		sp.end()
		if p.tr != nil {
			r.allocs = heapAllocs() - a0
		}
		if r.err = err; err == nil {
			p.keep(r, o.kind, []httpapi.QueryRequest{o.query}, []*httpapi.QueryResponse{q})
		}
	case opBatch:
		sid, err := p.session(o.slot)
		if err != nil {
			r.err = err
			break
		}
		sp := p.tr.start(id, "http.batch")
		resp, err := cl.Batch(ctx, sid, httpapi.BatchRequest{Queries: o.batch})
		sp.end()
		if r.err = err; err == nil {
			rels := make([]*httpapi.QueryResponse, len(o.batch))
			for i, item := range resp.Responses {
				if i < len(rels) {
					rels[i] = item.Result
				}
			}
			p.keep(r, o.kind, o.batch, rels)
		}
	case opDelete:
		sp := p.tr.start(id, "http.delete")
		for _, sid := range p.sessions[o.slot] {
			if err := cl.DeleteSession(ctx, sid); err != nil && r.err == nil {
				r.err = err
			}
		}
		sp.end()
	}
	r.dur = time.Since(start)
	r.retries = p.retries(c, before)
}

// keep checks every release as it arrives and holds on to the seeded
// ones, which the reference replay and the digest need; a run holds
// hundreds of thousands of releases, too many to keep for the collector
// to walk between phases.
func (p *pass) keep(r *result, k opKind, qs []httpapi.QueryRequest, rels []*httpapi.QueryResponse) {
	seeded := false
	for i, q := range qs {
		checkRelease(p.ck, k, q, rels[i])
		if rels[i] != nil {
			r.served++
		}
		if q.Seed != 0 {
			seeded = true
		} else {
			rels[i] = nil
		}
	}
	if seeded {
		r.rels = rels
	}
}

// checker collects output-check failures; the first few are printed.
type checker struct {
	mu     sync.Mutex
	n      int
	first  []string
	byKind [len(opNames)]int
}

func (ck *checker) fail(k opKind, format string, args ...any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.n++
	ck.byKind[k]++
	if len(ck.first) < 10 {
		ck.first = append(ck.first, fmt.Sprintf("%s: ", k)+fmt.Sprintf(format, args...))
	}
}

// checkWire runs the checks that need no in-process reference and were
// not already made as the responses arrived (see keep): every op
// succeeded, cold uploads missed the plan cache, and re-uploads hit it
// with the fingerprint of the first upload.
func (p *pass) checkWire(ck *checker) {
	check := func(o *op, r *result) {
		if r.err != nil {
			ck.fail(o.kind, "slot %d: %v", o.slot, r.err)
			return
		}
		switch o.kind {
		case opOpen:
			if r.cacheHit {
				ck.fail(o.kind, "slot %d: cold upload reported cache_hit", o.slot)
			}
		case opReopen:
			if !r.cacheHit {
				ck.fail(o.kind, "slot %d: re-upload missed the plan cache", o.slot)
			}
		}
	}
	for i := range p.w.setup {
		check(&p.w.setup[i], &p.setupRes[i])
	}
	firstFP := make(map[int]string)
	p.each(func(o *op, r *result, _ int64) {
		check(o, r)
		if o.kind == opOpen {
			firstFP[o.slot] = r.fp
		}
		if o.kind == opReopen && r.err == nil && r.fp != firstFP[o.slot] {
			ck.fail(o.kind, "slot %d: re-upload fingerprint %s, first upload %s", o.slot, r.fp, firstFP[o.slot])
		}
	})
}

func checkRelease(ck *checker, k opKind, q httpapi.QueryRequest, got *httpapi.QueryResponse) {
	switch {
	case got == nil:
		ck.fail(k, "no release for %s ε=%v", q.Op, q.Epsilon)
	case got.Op != q.Op || got.Epsilon != q.Epsilon:
		ck.fail(k, "release echoes %s ε=%v, asked %s ε=%v", got.Op, got.Epsilon, q.Op, q.Epsilon)
	case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || !(got.NoiseScale > 0) || !(got.DeltaHat >= 1):
		ck.fail(k, "malformed release %+v", *got)
	}
}

// opStats are the per-kind request counts of one pass.
type opStats struct {
	attempted, failed, shed, retries [len(opNames)]int
}

func (p *pass) opStats() opStats {
	var s opStats
	p.each(func(o *op, r *result, _ int64) {
		s.attempted[o.kind]++
		if r.err != nil {
			s.failed[o.kind]++
		}
		s.retries[o.kind] += r.retries
	})
	for _, rt := range p.rt {
		for k := range rt.shed {
			s.shed[k] += int(rt.shed[k].Load())
		}
	}
	return s
}

// each visits every timed op with its result, in script order.
func (p *pass) each(fn func(o *op, r *result, id int64)) {
	for pi, ph := range p.w.phases {
		for c, ops := range ph.clients {
			for i := range ops {
				fn(&ops[i], &p.res[pi][c][i], traceID(pi, c, i))
			}
		}
	}
}

var errNoSession = errors.New("the slot has no session: its upload failed")

func (p *pass) session(slot int) (string, error) {
	if len(p.sessions[slot]) == 0 {
		return "", errNoSession
	}
	return p.sessions[slot][0], nil
}
