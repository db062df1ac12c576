package main

// The layer pass of a traced run: each layer's public functions called in
// process on the inputs the HTTP pass uploaded, one span per call.

import (
	"context"
	"fmt"
	"math"

	"nodedp/internal/core"
	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/httpapi"
	"nodedp/internal/mechanism"
	"nodedp/internal/privacy"
	"nodedp/internal/spanning"
)

// layerPass times the graph, spanning, forestlp, core, mechanism and
// privacy layers on every graph the workload opens and returns the engine
// work the cold core evaluations did — the path the daemon's uploads take.
func layerPass(p *pass, tr *tracer, ck *checker) (forestlp.Stats, error) {
	w := p.w
	var work forestlp.Stats
	var err error
	accountants := map[string]float64{}
	visit := func(o *op, id int64) {
		if o.kind != opOpen || err != nil {
			return
		}
		accountants[o.acct] = o.delta
		var st forestlp.Stats
		st, err = graphLayers(tr, ck, id, w.graphs[o.graph])
		work.MergeComponent(st)
	}
	for i := range w.setup {
		visit(&w.setup[i], -1-int64(i))
	}
	p.each(func(o *op, _ *result, id int64) { visit(o, id) })
	if err != nil {
		return work, err
	}
	for _, name := range []string{"sequential", "advanced"} {
		if delta, ok := accountants[name]; ok {
			if err := reserveLoop(tr, name, delta); err != nil {
				return work, err
			}
		}
	}
	return work, nil
}

func graphLayers(tr *tracer, ck *checker, id int64, gs graphSpec) (forestlp.Stats, error) {
	ctx := context.Background()
	sp := tr.start(id, "graph.canonicalize")
	g, err := buildGraph(gs)
	sp.end()
	if err != nil {
		return forestlp.Stats{}, fmt.Errorf("%s: %w", gs.name, err)
	}

	sp = tr.start(id, "graph.csr")
	csr := graph.NewCSR(g)
	shards := csr.ComponentShards()
	sp.end()
	sp = tr.start(id, "graph.fingerprint")
	csr.Fingerprint()
	sp.end()

	// The engine builds its low-degree spanning forests per component
	// (the triage certificate of each shard), so the layer is timed the
	// same way: over every non-trivial component, not the whole graph.
	var subs []*graph.Graph
	for _, sh := range shards {
		if sh.N() >= 2 {
			subs = append(subs, sh.Graph())
		}
	}
	sp = tr.start(id, "spanning.forest")
	for _, sub := range subs {
		spanning.LowDegreeSpanningForest(sub)
	}
	sp.end()

	sp = tr.start(id, "forestlp.plan")
	plan := forestlp.NewPlanCSR(csr)
	sp.end()
	grid, err := mechanism.PowerOfTwoGrid(float64(gs.n))
	if err != nil {
		return forestlp.Stats{}, err
	}
	sp = tr.start(id, "forestlp.grid")
	_, _, err = plan.GridValues(ctx, grid, forestlp.Options{})
	sp.end()
	if err != nil {
		return forestlp.Stats{}, fmt.Errorf("%s: forestlp grid: %w", gs.name, err)
	}

	cache := core.NewPlanCacheWeighted(httpapi.DefaultCacheWeight)
	sp = tr.start(id, "core.grid_eval")
	ge, hit, err := cache.GridEval(ctx, g, core.Options{})
	sp.end()
	if err != nil || hit {
		return forestlp.Stats{}, fmt.Errorf("%s: cold core evaluation: hit=%v err=%v", gs.name, hit, err)
	}
	sp = tr.start(id, "core.cache_lookup")
	_, hit, err = cache.GridEval(ctx, g, core.Options{})
	sp.end()
	if err != nil || !hit {
		ck.fail(opOpen, "%s: core cache lookup after a cold evaluation: hit=%v err=%v", gs.name, hit, err)
	}
	return ge.Stats(), releaseLoop(tr, id, ge, gs.n)
}

// releaseLoop times the mechanism layer: GEM selection plus the Laplace
// release on the grid just built, ε = 1 split as the release path splits
// it. Calls take microseconds, so each span covers a loop of them.
func releaseLoop(tr *tracer, id int64, ge *core.GridEval, n int) error {
	const eps = 1.0
	res, err := core.EstimateSpanningForestSizeFromGrid(context.Background(), ge, core.Options{Epsilon: eps, Rand: generate.NewRand(1)})
	if err != nil {
		return fmt.Errorf("mechanism inputs: %w", err)
	}
	deltas := make([]float64, len(res.Evaluations))
	qs := make([]float64, len(res.Evaluations))
	for i, e := range res.Evaluations {
		deltas[i], qs[i] = e.Delta, e.Q
	}
	beta := 0.5 // the release path's default β = 1/ln ln n, clamped to 1/2
	if n > 15 {
		beta = math.Min(0.5, 1/math.Log(math.Log(float64(n))))
	}
	rng := generate.NewRand(2)
	for s := 0; s < 16; s++ {
		sp := tr.start(id, "mechanism.release")
		for i := 0; i < 16; i++ {
			sel, err := mechanism.GEM(rng, deltas, qs, eps/2, beta)
			if err != nil {
				return fmt.Errorf("GEM: %w", err)
			}
			if _, err := mechanism.LaplaceRelease(rng, res.Evaluations[sel.Index].FDelta, sel.Delta, eps/2); err != nil {
				return fmt.Errorf("Laplace release: %w", err)
			}
		}
		sp.endN(16)
	}
	return nil
}

// reserveLoop times the privacy layer: one accountant reservation.
func reserveLoop(tr *tracer, name string, delta float64) error {
	comp, err := privacy.ParseComposition(name)
	if err != nil {
		return err
	}
	acct, err := privacy.New(comp, 1e12, delta)
	if err != nil {
		return err
	}
	for s := 0; s < 64; s++ {
		sp := tr.start(-1<<40, "privacy.reserve")
		for i := 0; i < 256; i++ {
			if err := acct.Reserve(0.5); err != nil {
				return fmt.Errorf("reserve: %w", err)
			}
		}
		sp.endN(256)
	}
	return nil
}
