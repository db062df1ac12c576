package main

// Workload inputs. Every workload is a fixed script: the graphs, the order
// they are uploaded in, and every request, all derived from the workload
// seed before anything is timed. Nothing depends on the clock, so two runs
// with one seed do exactly the same work.

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/httpapi"
)

// graphSpec is one uploadable graph: n vertices and its sorted edge list.
type graphSpec struct {
	name  string
	n     int
	edges [][2]int
}

type opKind int

const (
	opOpen   opKind = iota // cold upload, then the first query: time to first release
	opReopen               // upload the slot's graph again: a plan-cache hit
	opPatch                // one PATCH delta on the slot's first session
	opQuery                // one single query
	opBatch                // one batch of queries
	opDelete               // delete every session of the slot
)

var opNames = [...]string{"open", "reopen", "patch", "query", "batch", "delete"}

func (k opKind) String() string { return opNames[k] }

// op is one scripted request (opOpen is two: the upload and its first
// query). A slot names one graph's sessions; each slot is used by exactly
// one client, so its requests are ordered.
type op struct {
	kind    opKind
	slot    int
	graph   int // opOpen, opReopen
	tenant  string
	acct    string
	budget  float64
	delta   float64
	adds    [][2]int
	removes [][2]int
	query   httpapi.QueryRequest // opOpen (first query), opQuery
	batch   []httpapi.QueryRequest
}

// phase is a step of the timed run: each client runs its op list in order,
// all clients at once, and the phase ends when the last one finishes.
type phase struct {
	name    string // open, reopen, delta, query, mix, delete
	clients [][]op
}

type workload struct {
	name    string
	seed    uint64
	clients int
	slots   int
	graphs  []graphSpec
	setup   []op // run by one client before the timed window
	phases  []phase
}

// Workload sizes. They are fixed: a run is never cut short by a timer.
const (
	// solve-giant: the corpus is fixed (see solveGiant); each graph gets
	// padPairs spare vertex pairs so that its deltas touch only 2-vertex
	// components and the giant's sub-plan is reused.
	giantERSeeds     = 6
	giantSpiderSeeds = 5
	padPairs         = 40
	giantQueries     = 800
	giantBatches     = 32

	// ingest-sparse: random geometric graphs, n = 2·10⁴, r chosen for
	// about 4.3k components and 25k edges. A burst of burstQueries
	// queries and burstBatches batches follows the cold open and every
	// delta.
	sparseGraphs = 6
	sparseN      = 20000
	sparseRadius = 0.0064
	sparseDeltas = 4
	burstQueries = 80
	burstBatches = 4

	// serve-mixed: 8 sessions opened in setup, then openRounds rounds of
	// cold/cached opens; before every mixEvery-th of them, one round of a
	// closed loop of mixOps requests per client.
	mixSessions  = 8
	mixEvery     = 1
	mixOps       = 800
	openRounds   = 100
	plantedBlock = 30
	plantedCount = 12

	// reopens is how many times each cold-opened graph is uploaded again.
	reopens   = 10
	batchSize = 32
	bigBudget = 1e9
	advDelta  = 1e-9
)

func edgesOf(g *graph.Graph) [][2]int {
	es := g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// spiderGraph is the hub-spider family of the repository's separation
// benchmarks: k ER clusters of minSize..minSize+spread-1 vertices, each
// tied to one hub by a single bridge, so the hub's degree is forced to k
// and the cutting-plane LP stays active over most of the Δ grid.
func spiderGraph(k, minSize, spread int, p float64, seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	sizes := make([]int, k)
	clusters := make([]*graph.Graph, k)
	for i := range clusters {
		sizes[i] = minSize + rng.IntN(spread)
		clusters[i] = generate.ErdosRenyi(sizes[i], p, rng)
	}
	g := generate.DisjointUnion(clusters...)
	hub := g.AddVertex()
	off := 0
	for i := 0; i < k; i++ {
		if err := g.AddEdge(hub, off+rng.IntN(sizes[i])); err != nil {
			panic(err) // the hub is fresh: a duplicate edge is a bug here
		}
		off += sizes[i]
	}
	return g
}

// plantedERGiant is the planted-ER giant family: one ER cluster of
// 120..300 vertices with mean degree 6.
func plantedERGiant(seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	n := 120 + rng.IntN(181)
	return generate.PlantedComponents([]int{n}, 6.0/float64(n), rng)
}

// plantedSessions is the serving family: 12 ER blocks of 30 vertices with
// mean degree 3, as in the repository's session benchmarks.
func plantedSessions(rng *rand.Rand) *graph.Graph {
	sizes := make([]int, plantedCount)
	for i := range sizes {
		sizes[i] = plantedBlock
	}
	return generate.PlantedComponents(sizes, 3.0/plantedBlock, generate.NewRand(rng.Uint64()))
}

// scriptRand draws everything a workload script needs from its seed.
type scriptRand struct{ *rand.Rand }

func newScriptRand(seed uint64, stream string) scriptRand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return scriptRand{rand.New(rand.NewPCG(seed, h.Sum64()))}
}

// query draws one query; seeded ones are reproducible and checked
// bit-for-bit, the rest take the crypto noise path.
func (r scriptRand) query(seeded bool) httpapi.QueryRequest {
	ops := [...]string{"cc", "cc", "cc-known-n", "sf"}
	eps := [...]float64{0.1, 0.5, 1}
	q := httpapi.QueryRequest{Op: ops[r.IntN(len(ops))], Epsilon: eps[r.IntN(len(eps))]}
	if seeded {
		q.Seed = r.Uint64() | 1
	}
	return q
}

func (r scriptRand) batch() []httpapi.QueryRequest {
	b := make([]httpapi.QueryRequest, batchSize)
	for i := range b {
		b[i] = r.query(r.IntN(8) == 0)
	}
	return b
}

// queryBurst is the query phase of one slot: singles first, then batches.
func (r scriptRand) queryBurst(slot, singles, batches int) []op {
	var ops []op
	for i := 0; i < singles; i++ {
		ops = append(ops, op{kind: opQuery, slot: slot, query: r.query(r.IntN(8) == 0)})
	}
	for i := 0; i < batches; i++ {
		ops = append(ops, op{kind: opBatch, slot: slot, batch: r.batch()})
	}
	return ops
}

func openOp(slot, g int, tenant string, first httpapi.QueryRequest) op {
	return op{kind: opOpen, slot: slot, graph: g, tenant: tenant, acct: "sequential", budget: bigBudget, query: first}
}

// solveGiant: one client uploads each giant-component graph cold, queries
// it, re-uploads it, applies a few deltas that touch only spare vertices,
// queries it some more, and deletes it. The corpus is fixed — the first
// generator seeds of each family, not filtered by how they solve — and the
// workload seed only orders it and draws the requests, because the solve
// time of one graph ranges over two orders of magnitude (the stall-bailout
// instances take ~10 s) and a seed-drawn corpus would make every run's
// total a lottery.
func solveGiant(seed uint64) *workload {
	w := &workload{name: "solve-giant", seed: seed, clients: 1}
	for s := 1; s <= giantERSeeds; s++ {
		w.graphs = append(w.graphs, padded(fmt.Sprintf("planted-er-giant/%d", s), plantedERGiant(uint64(s))))
	}
	for s := 1; s <= giantSpiderSeeds; s++ {
		w.graphs = append(w.graphs, padded(fmt.Sprintf("hub-spider/%d", s), spiderGraph(40, 4, 5, 0.65, uint64(s))))
	}
	r := newScriptRand(seed, w.name)
	order := r.Perm(len(w.graphs))
	for slot, gi := range order {
		gs := w.graphs[gi]
		base := gs.n - 2*padPairs
		var deltas []op
		for j := 0; j < padPairs; j++ {
			deltas = append(deltas,
				op{kind: opPatch, slot: slot, adds: [][2]int{{base + 2*j, base + 2*j + 1}}},
				op{kind: opQuery, slot: slot, query: r.query(false)})
		}
		first := r.query(true)
		first.Op = "cc"
		w.phases = append(w.phases,
			phase{"open", [][]op{{openOp(slot, gi, "solve", first)}}},
			phase{"reopen", [][]op{reopenOps(slot, gi, "solve")}},
			phase{"delta", [][]op{deltas}},
			phase{"query", [][]op{r.queryBurst(slot, giantQueries, giantBatches)}},
			phase{"delete", [][]op{{{kind: opDelete, slot: slot}}}})
	}
	w.slots = len(order)
	return w
}

func reopenOps(slot, g int, tenant string) []op {
	ops := make([]op, reopens)
	for i := range ops {
		ops[i] = op{kind: opReopen, slot: slot, graph: g, tenant: tenant}
	}
	return ops
}

func padded(name string, g *graph.Graph) graphSpec {
	return graphSpec{name: name, n: g.N() + 2*padPairs, edges: edgesOf(g)}
}

// ingestSparse: one client uploads each large sparse geometric graph cold,
// uploads it again (a plan-cache hit), then applies a stream of one-edge
// deltas — alternately adding a random non-edge and removing a random edge
// — each followed by one query; the last of those queries is seeded. A
// burst of queries and batches follows the cold open and every delta, so
// the cheap requests are spread over the whole run rather than bunched
// into a few seconds of it.
func ingestSparse(seed uint64) *workload {
	w := &workload{name: "ingest-sparse", seed: seed, clients: 1}
	r := newScriptRand(seed, w.name)
	for i := 0; i < sparseGraphs; i++ {
		g := generate.Geometric(sparseN, sparseRadius, generate.NewRand(r.Uint64()))
		w.graphs = append(w.graphs, graphSpec{name: fmt.Sprintf("geometric/%d", i), n: g.N(), edges: edgesOf(g)})
	}
	for slot, gs := range w.graphs {
		present := make(map[[2]int]int, len(gs.edges))
		list := append([][2]int(nil), gs.edges...)
		for i, e := range list {
			present[e] = i
		}
		first := r.query(true)
		first.Op = "cc"
		w.phases = append(w.phases,
			phase{"open", [][]op{{openOp(slot, slot, "ingest", first)}}},
			phase{"query", [][]op{r.queryBurst(slot, burstQueries, burstBatches)}},
			phase{"reopen", [][]op{reopenOps(slot, slot, "ingest")}})
		for j := 0; j < sparseDeltas; j++ {
			var p op
			if j%2 == 0 {
				e := r.nonEdge(gs.n, present)
				present[e] = len(list)
				list = append(list, e)
				p = op{kind: opPatch, slot: slot, adds: [][2]int{e}}
			} else {
				i := r.IntN(len(list))
				e := list[i]
				last := list[len(list)-1]
				list[i] = last
				present[last] = i
				list = list[:len(list)-1]
				delete(present, e)
				p = op{kind: opPatch, slot: slot, removes: [][2]int{e}}
			}
			w.phases = append(w.phases,
				phase{"delta", [][]op{{p, {kind: opQuery, slot: slot, query: r.query(j == sparseDeltas-1)}}}},
				phase{"query", [][]op{r.queryBurst(slot, burstQueries, burstBatches)}})
		}
		w.phases = append(w.phases, phase{"delete", [][]op{{{kind: opDelete, slot: slot}}}})
	}
	w.slots = len(w.graphs)
	return w
}

func (r scriptRand) nonEdge(n int, present map[[2]int]int) [2]int {
	for {
		u, v := r.IntN(n), r.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if _, ok := present[[2]int{u, v}]; !ok {
			return [2]int{u, v}
		}
	}
}

// serveMixed: setup opens mixSessions sessions (each client gets
// sequential and advanced accountants; budgets never run out). Then
// openRounds rounds in which one client opens a fresh graph cold, opens it
// again and deletes it; before every mixEvery-th open round, the two
// clients, each owning half the sessions, run one round of a closed loop
// of single queries, 32-query batches and a few bridge deltas. Spreading
// the loop over the whole run, rather than running it in one stretch,
// makes its figures average the machine's drift over the run.
func serveMixed(seed uint64) *workload {
	w := &workload{name: "serve-mixed", seed: seed, clients: 2}
	r := newScriptRand(seed, w.name)
	for i := 0; i < mixSessions; i++ {
		g := plantedSessions(r.Rand)
		w.graphs = append(w.graphs, graphSpec{name: fmt.Sprintf("planted/%d", i), n: g.N(), edges: edgesOf(g)})
		o := openOp(i, i, "mixed", r.query(true))
		if (i/2)%2 == 1 {
			o.acct, o.delta = "advanced", advDelta
		}
		w.setup = append(w.setup, o)
	}
	prevBridge := make([][2]int, mixSessions)
	// The open rounds alternate between the clients, one client at a time:
	// two concurrent cold opens on one processor would make each one's
	// time depend on how the two happen to overlap.
	slot := mixSessions
	for round := 0; round < openRounds; round++ {
		if round%mixEvery == 0 {
			w.phases = append(w.phases, phase{"mix", r.mixRound(w.clients, prevBridge)})
		}
		c := round % w.clients
		g := plantedSessions(r.Rand)
		gi := len(w.graphs)
		w.graphs = append(w.graphs, graphSpec{name: fmt.Sprintf("planted/%d", gi), n: g.N(), edges: edgesOf(g)})
		// One tenant per client, so a client's delete drops its plan cache
		// and its next upload is cold.
		tenant := fmt.Sprintf("open-%d", c)
		first := r.query(true)
		first.Op = "cc"
		opens, reopens, deletes := make([][]op, w.clients), make([][]op, w.clients), make([][]op, w.clients)
		opens[c] = []op{openOp(slot, gi, tenant, first)}
		reopens[c] = reopenOps(slot, gi, tenant)
		deletes[c] = []op{{kind: opDelete, slot: slot}}
		w.phases = append(w.phases, phase{"open", opens}, phase{"reopen", reopens}, phase{"delete", deletes})
		slot++
	}
	w.slots = slot
	return w
}

// mixRound draws one round of the closed loop: per client, mixOps
// requests on the client's own sessions.
func (r scriptRand) mixRound(clients int, prevBridge [][2]int) [][]op {
	mix := make([][]op, clients)
	for c := range mix {
		for k := 0; k < mixOps; k++ {
			slot := c + clients*r.IntN(mixSessions/clients)
			switch x := r.IntN(1000); {
			case x < 5:
				p := op{kind: opPatch, slot: slot}
				b := r.bridge(prevBridge[slot])
				p.adds = [][2]int{b}
				if prevBridge[slot] != ([2]int{}) {
					p.removes = [][2]int{prevBridge[slot]}
				}
				prevBridge[slot] = b
				mix[c] = append(mix[c], p)
			case x < 35:
				mix[c] = append(mix[c], op{kind: opBatch, slot: slot, batch: r.batch()})
			default:
				mix[c] = append(mix[c], op{kind: opQuery, slot: slot, query: r.query(r.IntN(16) == 0)})
			}
		}
	}
	return mix
}

// bridge draws an edge between two different planted blocks (no such edge
// exists in a planted graph) that differs from prev, so a delta never adds
// and removes the same edge.
func (r scriptRand) bridge(prev [2]int) [2]int {
	for {
		a, b := r.IntN(plantedCount), r.IntN(plantedCount)
		if a == b {
			continue
		}
		u, v := a*plantedBlock+r.IntN(plantedBlock), b*plantedBlock+r.IntN(plantedBlock)
		if u > v {
			u, v = v, u
		}
		if e := [2]int{u, v}; e != prev {
			return e
		}
	}
}

var workloads = map[string]func(seed uint64) *workload{
	"solve-giant":   solveGiant,
	"ingest-sparse": ingestSparse,
	"serve-mixed":   serveMixed,
}

// digest fingerprints a workload's inputs: graphs, script and seeds. The
// determinism self-check uses it to show that a different seed gives
// different inputs.
func (w *workload) digest() string {
	h := fnv.New64a()
	for _, g := range w.graphs {
		fmt.Fprintf(h, "%s %d %v;", g.name, g.n, g.edges)
	}
	fmt.Fprintf(h, "%v;", w.setup)
	for _, p := range w.phases {
		fmt.Fprintf(h, "%s %v;", p.name, p.clients)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
