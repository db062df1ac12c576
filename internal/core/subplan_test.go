package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

// distinctNonTrivial counts the distinct fingerprints among g's components
// of two or more vertices, and how many such components there are.
func distinctNonTrivial(g *graph.Graph) (distinct, total int) {
	csr := graph.NewCSR(g)
	fps := csr.ComponentFingerprints()
	seen := make(map[graph.Fingerprint]bool)
	for i, sh := range csr.ComponentShards() {
		if sh.N() < 2 {
			continue
		}
		total++
		if !seen[fps[i]] {
			seen[fps[i]] = true
			distinct++
		}
	}
	return distinct, total
}

// TestAssemblyEvaluatesRepeatedComponentsOnce checks that an assembly
// solves each distinct component fingerprint once, however often the
// component repeats, and that the merged values and work counters still
// equal the monolithic evaluation bit for bit.
func TestAssemblyEvaluatesRepeatedComponentsOnce(t *testing.T) {
	dense := generate.ErdosRenyi(12, 0.45, generate.NewRand(3))
	g := generate.DisjointUnion(dense, generate.Complete(6), dense, generate.Grid(3, 3),
		generate.Path(4), dense, generate.Complete(6), graph.New(2), generate.Path(4))
	distinct, total := distinctNonTrivial(g)
	if distinct >= total {
		t.Fatalf("test graph has no repeated components (%d distinct of %d)", distinct, total)
	}

	ctx := context.Background()
	opts, err := Options{Epsilon: 1}.withDefaults(g.N())
	if err != nil {
		t.Fatal(err)
	}
	csr := graph.NewCSR(g)
	mono, err := evaluateGridCSR(ctx, csr, csr.Fingerprint(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(4)
	ge, hit, err := cache.GridEval(ctx, g, Options{})
	if err != nil || hit {
		t.Fatalf("cold assembly: hit=%v err=%v", hit, err)
	}
	st := cache.Stats()
	if st.SubPlanMisses != int64(distinct) || st.SubPlanHits != int64(total-distinct) {
		t.Errorf("sub-plan misses/hits = %d/%d, want %d/%d (one evaluation per distinct component)",
			st.SubPlanMisses, st.SubPlanHits, distinct, total-distinct)
	}
	if st.SubPlanEntries != distinct {
		t.Errorf("SubPlanEntries = %d, want %d", st.SubPlanEntries, distinct)
	}
	for j := range mono.fdeltas {
		if math.Float64bits(ge.fdeltas[j]) != math.Float64bits(mono.fdeltas[j]) {
			t.Errorf("grid point %d: assembled %v != monolithic %v", j, ge.fdeltas[j], mono.fdeltas[j])
		}
	}
	if math.Float64bits(ge.fsf) != math.Float64bits(mono.fsf) {
		t.Errorf("f_sf: assembled %v != monolithic %v", ge.fsf, mono.fsf)
	}
	a, b := ge.Stats(), mono.Stats()
	if b.LPSolves == 0 {
		t.Fatal("test graph never reaches the LP")
	}
	a.Shards, b.Shards = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("work counters diverge:\n assembled:  %+v\n monolithic: %+v", a, b)
	}
}

// TestSubPlansLiveWithTheirOwners checks the sub-plan lifetime rule: a
// sub-plan stays indexed while a cached entry owns it, leaves with its
// last owner, and a caller's previous plan still lends its sub-plans once
// its entry is gone.
func TestSubPlansLiveWithTheirOwners(t *testing.T) {
	// Equal vertex counts give both graphs the same default Δ-grid, so
	// their plans can share sub-plans.
	tri, sq, path := generate.Complete(3), generate.Cycle(4), generate.Path(4)
	gA := generate.DisjointUnion(tri, sq)   // components X, Y
	gB := generate.DisjointUnion(tri, path) // components X, Z
	ctx := context.Background()
	cache := NewPlanCache(1)

	geA, _, err := cache.GridEval(ctx, gA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	geB, _, err := cache.GridEval(ctx, gB, Options{}) // evicts A; X is shared
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Entries != 1 || st.SubPlanEntries != 2 || st.SubPlanEvictions != 1 {
		t.Fatalf("after evicting A: %d entries, %d sub-plans, %d released; want 1, 2 (X, Z), 1 (Y)",
			st.Entries, st.SubPlanEntries, st.SubPlanEvictions)
	}
	if st.SubPlanHits != 1 || st.SubPlanMisses != 3 {
		t.Fatalf("sub-plan hits/misses = %d/%d, want 1/3 (B reuses A's X)", st.SubPlanHits, st.SubPlanMisses)
	}
	checkSubIndex(t, cache)

	if cache.Invalidate(geB.Fingerprint()) != 1 {
		t.Fatal("Invalidate dropped nothing")
	}
	if st = cache.Stats(); st.SubPlanEntries != 0 || st.SubPlanEvictions != 3 {
		t.Fatalf("after Invalidate: %d sub-plans, %d released; want 0, 3", st.SubPlanEntries, st.SubPlanEvictions)
	}

	// A's entry is gone, but A's plan still holds X and Y.
	again, hit, err := cache.GridEvalCSR(ctx, graph.NewCSR(gA), geA, Options{})
	if err != nil || hit {
		t.Fatalf("re-plan of A: hit=%v err=%v", hit, err)
	}
	if st = cache.Stats(); st.SubPlanMisses != 3 || st.SubPlanHits != 3 {
		t.Fatalf("sub-plan hits/misses = %d/%d, want 3/3 (X and Y lent by the previous plan)",
			st.SubPlanHits, st.SubPlanMisses)
	}
	if !reflect.DeepEqual(again.fdeltas, geA.fdeltas) {
		t.Fatalf("re-plan values %v != %v", again.fdeltas, geA.fdeltas)
	}
}

// checkSubIndex fails unless the sub-plan index holds exactly the
// sub-plans of the resident entries, each counted once per owner.
func checkSubIndex(t *testing.T, c *PlanCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	want := make(map[subPlanKey]int)
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ge := el.Value.(*cacheEntry).ge
		for fp := range ge.subs {
			want[subPlanKey{fp: fp, opts: ge.optsDigest}]++
		}
	}
	if len(c.subs) != len(want) {
		t.Errorf("sub-plan index holds %d sub-plans, resident entries own %d", len(c.subs), len(want))
	}
	for key, refs := range want {
		if r, ok := c.subs[key]; !ok || r.refs != refs {
			t.Errorf("sub-plan %v: indexed %v, want %d owners", key.fp, r, refs)
		}
	}
}

// TestSubPlanIndexConcurrentOwners assembles graphs that share a component
// from several goroutines through a cache small enough to evict on almost
// every admission, then checks the reference counts (run with -race).
func TestSubPlanIndexConcurrentOwners(t *testing.T) {
	shared := generate.Complete(4)
	var graphs []*graph.Graph
	for i := 0; i < 8; i++ {
		// Equal vertex counts keep one Δ-grid, so the graphs share sub-plans.
		graphs = append(graphs, generate.DisjointUnion(shared, generate.Path(2+i), graph.New(8-i)))
	}
	cache := NewPlanCache(2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range graphs {
					if _, _, err := cache.GridEval(context.Background(), graphs[(i+w)%len(graphs)], Options{}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checkSubIndex(t, cache)
	for _, g := range graphs {
		cache.Invalidate(g.Fingerprint())
	}
	checkSubIndex(t, cache)
	if st := cache.Stats(); st.SubPlanEntries != 0 {
		t.Fatalf("%d sub-plans left after invalidating every graph", st.SubPlanEntries)
	}
}
