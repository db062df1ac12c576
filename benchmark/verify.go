package main

// The in-process reference. After the timed window, every slot's script is
// replayed against serve.Session directly — same graphs, same deltas, same
// per-tenant plan caches, same seeds — and every fingerprint and seeded
// release the daemon returned must equal the reference bit for bit. In a
// traced run the replay's calls are also the serve layer's spans.

import (
	"context"
	"fmt"
	"math"

	"nodedp/internal/core"
	"nodedp/internal/graph"
	"nodedp/internal/httpapi"
	"nodedp/internal/privacy"
	"nodedp/internal/serve"
)

type tenantCache struct {
	cache *core.PlanCache
	live  int
}

type replay struct {
	w      *workload
	tr     *tracer
	ck     *checker
	caches map[string]*tenantCache
	slots  []slotRef
	// Sub-plan reuse across the replayed deltas: components reused and
	// re-evaluated. The replay is sequential, so these counts repeat
	// exactly for one seed.
	subHits, subMisses int64
	deltas             int
}

// slotRef is the in-process twin of one slot: g is the graph the slot
// should hold, and sess follows it delta by delta, as the daemon's
// session did. Open serves a snapshot of its graph, so g can be mutated
// without touching sess.
type slotRef struct {
	g       *graph.Graph
	sess    *serve.Session
	tenants []string // tenants of every session the slot opened
}

func newReplay(w *workload, tr *tracer, ck *checker) *replay {
	return &replay{
		w:      w,
		tr:     tr,
		ck:     ck,
		caches: make(map[string]*tenantCache),
		slots:  make([]slotRef, w.slots),
	}
}

// verify replays the setup and every phase in script order against the
// results p observed.
func (rp *replay) verify(p *pass) {
	for i := range rp.w.setup {
		rp.op(&rp.w.setup[i], &p.setupRes[i], -1-int64(i))
	}
	p.each(func(o *op, r *result, id int64) { rp.op(o, r, id) })
}

func buildGraph(gs graphSpec) (*graph.Graph, error) {
	return graph.FromEdgesCanonical(gs.n, toEdges(gs.edges))
}

func (rp *replay) tenantCache(t string) *core.PlanCache {
	tc := rp.caches[t]
	if tc == nil {
		tc = &tenantCache{cache: core.NewPlanCacheWeighted(httpapi.DefaultCacheWeight)}
		rp.caches[t] = tc
	}
	tc.live++
	return tc.cache
}

func (rp *replay) op(o *op, r *result, id int64) {
	if r.err != nil {
		return // already a failure; nothing to compare against
	}
	ctx := context.Background()
	sl := &rp.slots[o.slot]
	switch o.kind {
	case opOpen:
		g, err := buildGraph(rp.w.graphs[o.graph])
		if err != nil {
			rp.ck.fail(o.kind, "slot %d: building reference graph: %v", o.slot, err)
			return
		}
		if fp := g.Fingerprint().String(); fp != r.fp {
			rp.ck.fail(o.kind, "slot %d: daemon fingerprint %s, in-process %s", o.slot, r.fp, fp)
		}
		comp, err := privacy.ParseComposition(o.acct)
		if err != nil {
			rp.ck.fail(o.kind, "slot %d: %v", o.slot, err)
			return
		}
		opts := serve.SessionOptions{TotalBudget: o.budget, Composition: comp, Delta: o.delta, Cache: rp.tenantCache(o.tenant)}
		sl.tenants = append(sl.tenants, o.tenant)
		sp := rp.tr.start(id, "serve.open")
		sess, err := serve.Open(ctx, g, opts)
		sp.end()
		if err != nil {
			rp.ck.fail(o.kind, "slot %d: in-process open: %v", o.slot, err)
			return
		}
		sl.g, sl.sess = g, sess
		rp.query(o.kind, id, "serve.first_query", sl, o.query, r.seeded(0))
	case opReopen:
		// The daemon's re-upload was checked against its first upload; a
		// traced replay also times the in-process cached open.
		if rp.tr == nil || sl.sess == nil {
			return
		}
		g, err := buildGraph(rp.w.graphs[o.graph])
		if err != nil {
			return
		}
		sl.tenants = append(sl.tenants, o.tenant)
		sp := rp.tr.start(id, "serve.reopen")
		sess, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: bigBudget, Cache: rp.tenantCache(o.tenant)})
		sp.end()
		if err != nil || !sess.Stats().CacheHit {
			rp.ck.fail(o.kind, "slot %d: in-process cached open: hit=%v err=%v", o.slot, err == nil && sess.Stats().CacheHit, err)
		}
	case opPatch:
		if sl.sess == nil {
			return
		}
		added, removed := 0, 0
		for _, e := range o.removes {
			if sl.g.RemoveEdge(e[0], e[1]) {
				removed++
			}
		}
		for _, e := range o.adds {
			if ok, err := sl.g.EnsureEdge(e[0], e[1]); err == nil && ok {
				added++
			}
		}
		if fp := sl.g.Fingerprint().String(); fp != r.fp || added != r.added || removed != r.removed {
			rp.ck.fail(o.kind, "slot %d: daemon fp %s +%d -%d, in-process fp %s +%d -%d",
				o.slot, r.fp, r.added, r.removed, fp, added, removed)
		}
		sp := rp.tr.start(id, "serve.patch")
		rp.apply(sl, toEdges(o.adds), toEdges(o.removes))
		sp.end()
	case opQuery:
		if sl.sess != nil {
			rp.query(o.kind, id, "serve.query", sl, o.query, r.seeded(0))
		}
	case opBatch:
		if sl.sess == nil || (rp.tr == nil && !anySeeded(o.batch)) {
			return
		}
		reqs := make([]serve.Request, len(o.batch))
		for i, q := range o.batch {
			op, mode := serveOp(q.Op)
			reqs[i] = serve.Request{Op: op, Epsilon: q.Epsilon, Mode: mode, Seed: q.Seed}
		}
		sp := rp.tr.start(id, "serve.batch")
		resps := sl.sess.Do(ctx, reqs)
		sp.end()
		for i, q := range o.batch {
			got := r.seeded(i)
			if got == nil {
				continue
			}
			if resps[i].Err != nil {
				rp.ck.fail(o.kind, "slot %d item %d: in-process: %v", o.slot, i, resps[i].Err)
				continue
			}
			compareRelease(rp.ck, o.kind, o.slot, q, got, resps[i].Result)
		}
	case opDelete:
		for _, t := range sl.tenants {
			if tc := rp.caches[t]; tc != nil {
				if tc.live--; tc.live == 0 {
					delete(rp.caches, t) // the daemon drops a tenant's cache with its last session
				}
			}
		}
		*sl = slotRef{}
	}
}

// apply runs one in-process delta on the slot's reference session and
// checks that it lands on the graph the slot now holds.
func (rp *replay) apply(sl *slotRef, adds, removes []graph.Edge) {
	res, err := sl.sess.ApplyDelta(context.Background(), adds, removes)
	if err != nil {
		rp.ck.fail(opPatch, "in-process delta: %v", err)
		return
	}
	if fp := sl.g.Fingerprint(); res.Fingerprint != fp {
		rp.ck.fail(opPatch, "in-process delta fingerprint %s, expected %s", res.Fingerprint, fp)
	}
	rp.subHits += res.SubPlanHits
	rp.subMisses += res.SubPlanMisses
	rp.deltas++
}

// query runs one query in process. Unseeded queries cannot be compared, so
// an untraced replay skips them; a traced replay times them all.
func (rp *replay) query(k opKind, id int64, span string, sl *slotRef, q httpapi.QueryRequest, got *httpapi.QueryResponse) {
	if (q.Seed == 0 && rp.tr == nil) || (q.Seed != 0 && got == nil) {
		return
	}
	sess := sl.sess
	op, mode := serveOp(q.Op)
	qo := serve.QueryOptions{Epsilon: q.Epsilon, Mode: mode, Seed: q.Seed}
	sp := rp.tr.start(id, span)
	var res core.Result
	var err error
	if op == serve.OpSpanningForestSize {
		res, err = sess.SpanningForestSize(context.Background(), qo)
	} else {
		res, err = sess.ComponentCount(context.Background(), qo)
	}
	sp.end()
	if err != nil {
		rp.ck.fail(k, "in-process %s: %v", q.Op, err)
		return
	}
	if q.Seed != 0 {
		compareRelease(rp.ck, k, -1, q, got, res)
	}
}

// seeded returns the i-th seeded release the op received, or nil.
func (r *result) seeded(i int) *httpapi.QueryResponse {
	if i < len(r.rels) {
		return r.rels[i]
	}
	return nil
}

func serveOp(op string) (serve.Op, serve.Mode) {
	switch op {
	case "sf":
		return serve.OpSpanningForestSize, serve.PrivateN
	case "cc-known-n":
		return serve.OpComponentCount, serve.KnownN
	default:
		return serve.OpComponentCount, serve.PrivateN
	}
}

func anySeeded(qs []httpapi.QueryRequest) bool {
	for _, q := range qs {
		if q.Seed != 0 {
			return true
		}
	}
	return false
}

func toEdges(es [][2]int) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.NewEdge(e[0], e[1])
	}
	return out
}

// compareRelease demands bit equality of every released field.
func compareRelease(ck *checker, k opKind, slot int, q httpapi.QueryRequest, got *httpapi.QueryResponse, want core.Result) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Value, want.Value) || !same(got.DeltaHat, want.Delta) ||
		!same(got.NoiseScale, want.NoiseScale) || !same(got.NHat, want.NHat) {
		ck.fail(k, "slot %d: seeded %s (seed %d): daemon %v/%v/%v/%v, in-process %v/%v/%v/%v", slot, q.Op, q.Seed,
			got.Value, got.DeltaHat, got.NoiseScale, got.NHat, want.Value, want.Delta, want.NoiseScale, want.NHat)
	}
}

// seededDigest hashes every seeded release the daemon returned, in script
// order; two runs with one seed must agree on it.
func seededDigest(p *pass) string {
	var h uint64 = 14695981039346656037
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	add := func(q httpapi.QueryRequest, got *httpapi.QueryResponse) {
		if q.Seed == 0 || got == nil {
			return
		}
		for _, v := range []float64{got.Value, got.DeltaHat, got.NoiseScale, got.NHat} {
			mix(math.Float64bits(v))
		}
	}
	visit := func(o *op, r *result) {
		switch o.kind {
		case opOpen, opQuery:
			add(o.query, r.seeded(0))
		case opBatch:
			for i, q := range o.batch {
				add(q, r.seeded(i))
			}
		}
	}
	for i := range p.w.setup {
		visit(&p.w.setup[i], &p.setupRes[i])
	}
	p.each(func(o *op, r *result, _ int64) { visit(o, r) })
	return fmt.Sprintf("%016x", h)
}
