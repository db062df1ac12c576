package core

// This file implements the component-keyed sub-plan layer of the PlanCache.
// f_Δ is additive over connected components, so a whole-graph grid
// evaluation is the per-grid-point sum of independent per-component
// evaluations — and those per-component results are cacheable under the
// component's own canonical fingerprint. The cache's miss path therefore
// assembles evaluations component-wise: each non-trivial component either
// reuses a sub-plan or is evaluated as a single-shard forestlp plan,
// and the per-component value vectors are merged in deterministic shard
// order. After a graph mutation (Session.ApplyDelta) only the touched
// components have new fingerprints; every untouched component hits, so a
// delta-open re-plans O(touched) instead of O(graph).
//
// Bit-identity is the load-bearing property: the assembled evaluation must
// equal the monolithic forestlp sweep bit for bit, in values and counters,
// or a delta-open would diverge from a cold open of the same graph. It
// holds by construction:
//
//   - Values: the monolithic engine evaluates each shard independently
//     (per-shard clamp to [0, n_i−1] inside planShard.eval), sums the
//     per-shard values in shard-index order, and clamps the total to
//     [0, f_sf]. A single-component plan's outer clamp to its own f_sf is
//     a no-op re-clamp, so the stored sub-plan vector is exactly the
//     per-shard contribution, and the merge below repeats the monolithic
//     sum — same addends, same order, same final clamp.
//   - Warm state: a grid sweep's warm-start state is strictly per-shard
//     and the grid points run sequentially in both shapes, so each shard
//     sees the identical (Δ, warm-state) sequence.
//   - Stats: integer counters are additive and max-gauges commute, so
//     summing per-component grid aggregates equals aggregating the
//     monolithic per-round sums; the only two fields that depend on the
//     evaluation's shape rather than its content — Workers and Components
//     — are overwritten with the values the monolithic sweep would have
//     reported. (Per-shard timing records are the one diagnostic that is
//     not propagated: their shard indices are meaningless across cache
//     reuse, so stored sub-plans drop them.)
//
// Sub-plans have no bound of their own: their lifetime follows the plans
// that use them. Every assembled GridEval owns the sub-plans of its
// non-trivial components, and the cache's sub-plan index holds the
// sub-plans of its resident entries, reference-counted over them — a
// sub-plan enters with the first entry that owns it and leaves with the
// last (eviction or Invalidate). A miss resolves each component against
// that index first, then against the caller's previous plan (a session's
// pre-delta evaluation, which may already have left the cache), and
// evaluates it only when both lack it — once per distinct fingerprint,
// however often that component repeats in the graph. Hits and misses thus
// depend only on the sequence of cache operations, never on the garbage
// collector. Sub-plans are not persisted in snapshots: they are derived
// state, cheap to refill, and keyed by fingerprints that a snapshot of
// whole-graph evaluations cannot validate. A plan loaded from a snapshot
// therefore owns none, and its first delta re-plans every component that
// no other cached plan owns.

import (
	"context"
	"fmt"

	"nodedp/internal/fault"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// subPlanKey identifies one component's grid evaluation: the component's
// canonical fingerprint (local-rank renumbering, see
// graph.CSR.ComponentFingerprints) plus the same options digest that keys
// whole-graph entries. The digest pins DeltaMax and therefore the grid, so
// a stored value vector is always aligned with the grid of any lookup that
// hits it.
type subPlanKey struct {
	fp   graph.Fingerprint
	opts string
}

// subPlan is one non-trivial component's share of a grid evaluation. It
// is immutable once evaluated and shared by reference between plans.
//
//privacy:secret — values are exact per-component f_Δ evaluations, pre-noise (see GridEval).
type subPlan struct {
	// values[j] is the component's contribution to f_Δ at grid point j,
	// clamped to [0, n−1] by the per-shard evaluator.
	values []float64
	// stats is the component's grid-aggregated work, with Shards timings
	// stripped (see the file comment).
	stats forestlp.Stats
}

// subRef is one sub-plan index entry: the sub-plan and the number of
// resident whole-graph entries that own it.
type subRef struct {
	sub  *subPlan
	refs int
}

// retainSubsLocked counts a newly resident entry as an owner of each of
// its sub-plans (c.mu held). An indexed sub-plan of the same key keeps its
// place: both hold identical values.
func (c *PlanCache) retainSubsLocked(ge *GridEval) {
	for fp, sp := range ge.subs {
		key := subPlanKey{fp: fp, opts: ge.optsDigest}
		if r, ok := c.subs[key]; ok {
			r.refs++
		} else {
			c.subs[key] = &subRef{sub: sp, refs: 1}
		}
	}
}

// releaseSubsLocked drops a departing entry's ownership (c.mu held) and
// releases every sub-plan it was the last owner of.
func (c *PlanCache) releaseSubsLocked(ge *GridEval) {
	for fp := range ge.subs {
		key := subPlanKey{fp: fp, opts: ge.optsDigest}
		if r := c.subs[key]; r.refs > 1 {
			r.refs--
		} else {
			delete(c.subs, key)
			c.stats.SubPlanEvictions++
		}
	}
}

// assembleGridCSR is the cache's evaluation path: a whole-graph grid
// evaluation assembled from per-component sub-plans, bit-identical to
// evaluateGridCSR on the same snapshot (see the file comment for why).
// Both cold opens and delta-opens funnel through here, which is what makes
// "delta-open ≡ cold open" hold by construction rather than by parallel
// maintenance of two evaluation paths. prev (may be nil) is the caller's
// previous plan; opts must already carry defaults.
func (c *PlanCache) assembleGridCSR(ctx context.Context, csr *graph.CSR, fp graph.Fingerprint, prev *GridEval, opts Options) (*GridEval, error) {
	grid, err := mechanism.PowerOfTwoGrid(opts.DeltaMax)
	if err != nil {
		return nil, err
	}
	digest := planOptionsDigest(opts)
	shards := csr.ComponentShards()
	fps := csr.ComponentFingerprints()

	// Non-trivial components in shard order. Singletons contribute zero to
	// every grid value and to f_sf and carry no stats; they enter only the
	// Components count.
	type compSlot struct {
		shard *graph.Shard
		fp    graph.Fingerprint
		sub   *subPlan
	}
	slots := make([]compSlot, 0, len(shards))
	fsf := 0
	for i, sh := range shards {
		if sh.N() < 2 {
			continue
		}
		fsf += sh.N() - 1
		slots = append(slots, compSlot{shard: sh, fp: fps[i]})
	}

	// subs becomes the new plan's sub-plans, one per distinct component
	// fingerprint: from the cache's index, else from prev, else evaluated.
	subs := make(map[graph.Fingerprint]*subPlan, len(slots))
	c.mu.Lock()
	for _, sl := range slots {
		if r, ok := c.subs[subPlanKey{fp: sl.fp, opts: digest}]; ok {
			subs[sl.fp] = r.sub
		}
	}
	c.mu.Unlock()
	var prevSubs map[graph.Fingerprint]*subPlan
	if prev != nil && prev.optsDigest == digest {
		prevSubs = prev.subs
	}
	var hits, misses int64
	defer func() {
		c.mu.Lock()
		c.stats.SubPlanHits += hits
		c.stats.SubPlanMisses += misses
		c.mu.Unlock()
	}()

	// Evaluate the missing components sequentially in shard order. Grid
	// points inside each component still run on the configured SepWorkers
	// pool, and sequential component order keeps span creation — and
	// therefore the trace tree — deterministic, exactly like the
	// monolithic sweep's sequential grid loop. If a component fails
	// (error, fault, cancelation), no plan is formed and the sub-plans
	// evaluated so far go with it; a retried delta still reuses every
	// untouched component through prev.
	for i := range slots {
		sl := &slots[i]
		if sp, ok := subs[sl.fp]; ok {
			sl.sub = sp
			hits++
			continue
		}
		if sp, ok := prevSubs[sl.fp]; ok {
			sl.sub, subs[sl.fp] = sp, sp
			hits++
			continue
		}
		misses++
		values, stats, err := forestlp.NewPlanCSR(&sl.shard.CSR).GridValues(ctx, grid, opts.ForestLP)
		if err != nil {
			return nil, fmt.Errorf("core: component %d (n=%d): %w", i, sl.shard.N(), err)
		}
		// Failpoint between a component's evaluation and its admission to
		// the plan: a firing site proves a fault-tainted sub-plan never
		// reaches the merge below or the sub-plan index.
		if err := fault.Hit("core.subplan.admit"); err != nil {
			return nil, err
		}
		stats.Shards = nil // timing indices are meaningless across reuse
		sl.sub = &subPlan{values: values, stats: stats}
		subs[sl.fp] = sl.sub
	}

	// Failpoint before the merge: every sub-plan is resolved, but the
	// whole-graph evaluation must still fail atomically — no partial
	// GridEval, no whole-graph cache entry.
	if err := fault.Hit("core.subplan.merge"); err != nil {
		return nil, err
	}

	// Deterministic merge: per grid point, sum the component contributions
	// in shard-index order and clamp to [0, f_sf] — the exact arithmetic of
	// the monolithic engine's merge loop.
	values := make([]float64, len(grid))
	for j := range grid {
		total := 0.0
		for i := range slots {
			//detlint:allow floatorder — deterministic merge: components are summed in shard-index order, the same fixed order as the monolithic engine, so the result is bit-identical regardless of which sub-plans were cached
			total += slots[i].sub.values[j]
		}
		if f := float64(fsf); total > f {
			total = f
		}
		if total < 0 {
			total = 0
		}
		values[j] = total
	}
	var merged forestlp.Stats
	for i := range slots {
		merged.MergeComponent(slots[i].sub.stats)
	}
	// The two shape-dependent fields, stamped as the monolithic sweep
	// would have: Workers resolves against the non-trivial shard count,
	// Components counts every component including singletons.
	merged.Workers = forestlp.ResolveWorkers(opts.ForestLP.Workers, len(slots))
	merged.Components = len(shards)

	return &GridEval{
		n:           csr.N(),
		m:           csr.M(),
		deltaMax:    opts.DeltaMax,
		optsDigest:  digest,
		fingerprint: fp,
		grid:        grid,
		fdeltas:     values,
		fsf:         float64(fsf),
		stats:       merged,
		subs:        subs,
	}, nil
}
