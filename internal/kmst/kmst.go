// Package kmst implements node-weighted quota-tree solvers: given a graph
// with non-negative integer node weights, find a low-length tree whose
// total node weight is at least a quota X. This is the "node-weighted
// k-MST" of §4.2 of the paper ("Given a node weight constraint X, the
// problem aims to find the tree with the smallest length such that the
// nodes it spans have total weight at least X"), the subproblem APP's
// binary search calls.
//
// The Garg solver follows Garg's FOCS'96 construction in its
// Lagrangian-relaxation reading: the quota constraint is priced into node
// prizes λ·w(v) and the Goemans–Williamson prize-collecting Steiner tree
// primal–dual (package pcst) is run, with a binary search driving λ to the
// smallest value whose GW tree meets the quota; a final quota-pruning pass
// strips unneeded leaves. A Prim-MST fallback guarantees a tree is found
// whenever any connected component carries the quota. The SPT solver is a
// cheap shortest-path-tree heuristic used for ablation benchmarks.
//
// # Pooling ownership
//
// NewGarg/NewSPT build allocating solvers tied to one Graph. Their pooled
// counterparts GargSolver/SPTSolver are reusable across queries via
// Reset(n, edges, weights) and return bit-identical Results
// (golden-tested) with zero steady-state allocations. A pooled solver
// serves one goroutine; Results it returns alias its internal arenas and
// stay valid across later Tree calls — APP's binary search holds earlier
// trees while probing new quotas — until the next Reset reclaims them.
package kmst

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/container"
	"repro/internal/pcst"
)

// Graph is a quota-solver input: edges with lengths and integer node
// weights (the scaled weights σ̂ of §4.1).
type Graph struct {
	N       int
	Edges   []pcst.Edge
	Weights []int64

	adj [][]halfedge // built lazily by New
}

type halfedge struct {
	to   int32
	edge int32
}

// New validates and prepares a quota-solver graph.
func New(n int, edges []pcst.Edge, weights []int64) (*Graph, error) {
	if len(weights) != n {
		return nil, fmt.Errorf("kmst: %d weights for %d nodes", len(weights), n)
	}
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("kmst: node %d has negative weight %d", i, w)
		}
	}
	g := &Graph{N: n, Edges: edges, Weights: weights}
	// Reuse pcst validation for the edge list.
	probe := pcst.Graph{N: n, Edges: edges, Prizes: make([]float64, n)}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	g.adj = make([][]halfedge, n)
	for i, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], halfedge{to: e.V, edge: int32(i)})
		g.adj[e.V] = append(g.adj[e.V], halfedge{to: e.U, edge: int32(i)})
	}
	return g, nil
}

// Result is a tree meeting (or attempting) a quota.
type Result struct {
	Nodes  []int32
	Edges  []int // indices into Graph.Edges
	Length float64
	Weight int64
}

// Solver finds a low-length tree with node weight at least the quota.
type Solver interface {
	// Tree returns a quota tree; ok is false when no connected component
	// of the graph carries the quota (or the solve was cancelled). A
	// non-nil error means the underlying optimization failed — the query
	// is lost, not the process; callers surface it instead of panicking.
	Tree(quota int64) (Result, bool, error)
}

// Garg is the GW-based quota solver. It caches GW runs per λ so that the
// repeated invocations from APP's binary search stay cheap. It is the
// allocating reference for GargSolver, which production code runs.
type Garg struct {
	g     *Graph
	cache map[float64][]pcst.Tree

	compWeight []int64 // per-node: total weight of the node's component
	lambdaMax  float64
}

// NewGarg returns a Garg solver over g.
func NewGarg(g *Graph) *Garg {
	s := &Garg{g: g, cache: make(map[float64][]pcst.Tree)}
	// Component weights, for feasibility checks and the MST fallback.
	uf := container.NewUnionFind(g.N)
	for _, e := range g.Edges {
		uf.Union(int(e.U), int(e.V))
	}
	sums := make(map[int]int64)
	for v := 0; v < g.N; v++ {
		sums[uf.Find(v)] += g.Weights[v]
	}
	s.compWeight = make([]int64, g.N)
	for v := 0; v < g.N; v++ {
		s.compWeight[v] = sums[uf.Find(v)]
	}
	var totalCost float64
	for _, e := range g.Edges {
		totalCost += e.Cost
	}
	// At λ ≥ totalCost+1 every weight-1 cluster has enough potential to
	// absorb its whole component, so the search interval is closed.
	s.lambdaMax = totalCost + 1
	return s
}

// Tree implements Solver.
func (s *Garg) Tree(quota int64) (Result, bool, error) {
	if quota <= 0 {
		// The empty quota is met by the single heaviest node.
		best := 0
		for v := 1; v < s.g.N; v++ {
			if s.g.Weights[v] > s.g.Weights[best] {
				best = v
			}
		}
		if s.g.N == 0 {
			return Result{}, false, nil
		}
		return Result{Nodes: []int32{int32(best)}, Weight: s.g.Weights[best]}, true, nil
	}
	feasible := false
	for v := 0; v < s.g.N; v++ {
		if s.compWeight[v] >= quota {
			feasible = true
			break
		}
	}
	if !feasible {
		return Result{}, false, nil
	}

	// Binary search λ over [0, λmax] for the smallest multiplier whose GW
	// forest contains a quota tree. The midpoint sequence is deterministic,
	// so the per-λ cache is shared across quotas within one query.
	lo, hi := 0.0, s.lambdaMax
	var best *Result
	for iter := 0; iter < 48 && hi-lo > 1e-9*s.lambdaMax; iter++ {
		mid := (lo + hi) / 2
		r, err := s.quotaTreeAt(mid, quota)
		if err != nil {
			return Result{}, false, err
		}
		if r != nil {
			if best == nil || r.Length < best.Length {
				best = r
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	if best == nil {
		r, err := s.quotaTreeAt(s.lambdaMax, quota)
		if err != nil {
			return Result{}, false, err
		}
		best = r
	}
	if best == nil {
		// GW pruning can in principle keep withholding the quota; fall
		// back to the component MST, which always carries it.
		r := s.mstFallback(quota)
		best = &r
	}
	quotaPrune(s.g, best, quota)
	return *best, true, nil
}

// quotaTreeAt runs (cached) GW with prizes λ·w and returns the minimum-
// length returned tree meeting the quota, or nil.
func (s *Garg) quotaTreeAt(lambda float64, quota int64) (*Result, error) {
	trees, ok := s.cache[lambda]
	if !ok {
		prizes := make([]float64, s.g.N)
		for v := 0; v < s.g.N; v++ {
			prizes[v] = lambda * float64(s.g.Weights[v])
		}
		var err error
		trees, err = pcst.Solve(&pcst.Graph{N: s.g.N, Edges: s.g.Edges, Prizes: prizes})
		if err != nil {
			// Inputs were validated in New, so this is a solver bug — but a
			// bug in one query's optimization must fail that query, not the
			// process hosting it.
			return nil, fmt.Errorf("kmst: pcst solve (lambda %g): %w", lambda, err)
		}
		s.cache[lambda] = trees
	}
	var best *Result
	for i := range trees {
		var w int64
		for _, v := range trees[i].Nodes {
			w += s.g.Weights[v]
		}
		if w < quota {
			continue
		}
		if best == nil || trees[i].Cost < best.Length {
			best = &Result{
				Nodes:  append([]int32(nil), trees[i].Nodes...),
				Edges:  append([]int(nil), trees[i].Edges...),
				Length: trees[i].Cost,
				Weight: w,
			}
		}
	}
	return best, nil
}

// mstFallback spans the lightest-length quota-carrying component with a
// Prim MST.
func (s *Garg) mstFallback(quota int64) Result {
	// Pick any node whose component carries the quota; prefer the largest
	// component weight to give quotaPrune room.
	seed := -1
	for v := 0; v < s.g.N; v++ {
		if s.compWeight[v] >= quota && (seed < 0 || s.compWeight[v] > s.compWeight[seed]) {
			seed = v
		}
	}
	// Prim from seed.
	type pqItem struct {
		cost float64
		to   int32
		edge int32
	}
	inTree := make([]bool, s.g.N)
	h := container.NewHeap[pqItem](func(a, b pqItem) bool { return a.cost < b.cost })
	res := Result{Nodes: []int32{int32(seed)}, Weight: s.g.Weights[seed]}
	inTree[seed] = true
	for _, he := range s.g.adj[seed] {
		h.Push(pqItem{cost: s.g.Edges[he.edge].Cost, to: he.to, edge: he.edge})
	}
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		if inTree[it.to] {
			continue
		}
		inTree[it.to] = true
		res.Nodes = append(res.Nodes, it.to)
		res.Edges = append(res.Edges, int(it.edge))
		res.Length += s.g.Edges[it.edge].Cost
		res.Weight += s.g.Weights[it.to]
		for _, he := range s.g.adj[it.to] {
			if !inTree[he.to] {
				h.Push(pqItem{cost: s.g.Edges[he.edge].Cost, to: he.to, edge: he.edge})
			}
		}
	}
	sort.Slice(res.Nodes, func(i, j int) bool { return res.Nodes[i] < res.Nodes[j] })
	return res
}

// pruneCand is one quotaPrune heap candidate: a leaf at the moment its
// degree reached 1, with its (then-fixed) single alive incident edge and
// removal score. Scores never change after that moment — edge costs and
// node weights are static, and a leaf's alive edge can only disappear by
// the leaf itself (or its neighbor) dying — so candidates are pushed once
// with their final score and lazily revalidated when popped.
type pruneCand struct {
	score float64
	pos   int32 // position in r.Nodes: replicates the scan's first-max tie-break
	node  int32
	edge  int32 // index into r.Edges
}

// pruneBetter orders heap candidates exactly as the reference scan picks
// them: higher score first, earlier r.Nodes position on ties (the scan
// keeps the first maximum under a strict > comparison).
func pruneBetter(a, b pruneCand) bool {
	return a.score > b.score || (a.score == b.score && a.pos < b.pos)
}

// pruneScore is the leaf-removal score: zero-weight leaves are free
// removals (+Inf), otherwise length per unit of weight given up.
func pruneScore(length float64, weight int64) float64 {
	if weight == 0 {
		return math.Inf(1)
	}
	return length / float64(weight)
}

// quotaPrune repeatedly removes the least useful leaf while the remaining
// weight still meets the quota, shrinking the tree's length. "Least
// useful" prefers zero-weight leaves with long edges (pure gain), then the
// highest length-per-weight ratio. Leaves live in a max-heap updated as
// nodes peel — O(|T| log |T|) where the old full rescan per removal was
// O(|T|²) — and the removal sequence is identical to the scan's
// (quotaPruneScan, kept for the golden tests): the heap order matches the
// scan's strict-max-plus-first-position selection, and a candidate the
// scan would skip is skipped here for the same reason — staleness (dead
// or no longer degree 1) or a quota failure, which is permanent because
// the remaining weight only ever decreases.
func quotaPrune(g *Graph, r *Result, quota int64) {
	if len(r.Nodes) <= 1 {
		return
	}
	// Local adjacency of the tree.
	deg := make(map[int32]int, len(r.Nodes))
	inc := make(map[int32][]int, len(r.Nodes)) // node -> indices into r.Edges
	alive := make(map[int32]bool, len(r.Nodes))
	pos := make(map[int32]int32, len(r.Nodes))
	edgeAlive := make([]bool, len(r.Edges))
	for i, v := range r.Nodes {
		alive[v] = true
		pos[v] = int32(i)
	}
	for i, ei := range r.Edges {
		e := g.Edges[ei]
		deg[e.U]++
		deg[e.V]++
		inc[e.U] = append(inc[e.U], i)
		inc[e.V] = append(inc[e.V], i)
		edgeAlive[i] = true
	}
	h := container.NewHeap[pruneCand](pruneBetter)
	push := func(v int32) {
		ei := int32(-1)
		for _, i := range inc[v] {
			if edgeAlive[i] {
				ei = int32(i)
				break
			}
		}
		if ei < 0 {
			return
		}
		h.Push(pruneCand{
			score: pruneScore(g.Edges[r.Edges[ei]].Cost, g.Weights[v]),
			pos:   pos[v], node: v, edge: ei,
		})
	}
	for _, v := range r.Nodes {
		if deg[v] == 1 {
			push(v)
		}
	}
	for {
		c, ok := h.Pop()
		if !ok {
			break // no removable leaf left
		}
		v := c.node
		if !alive[v] || deg[v] != 1 || !edgeAlive[c.edge] {
			continue // stale: the candidate (or its edge) died since the push
		}
		if r.Weight-g.Weights[v] < quota {
			continue // permanent: the remaining weight only decreases
		}
		// Only prune when it shortens the tree (always true for cost>0) or
		// frees weight with zero cost; stop pruning weight-carrying leaves
		// that don't save length.
		e := g.Edges[r.Edges[c.edge]]
		if e.Cost <= 0 && g.Weights[v] > 0 {
			break
		}
		alive[v] = false
		edgeAlive[c.edge] = false
		other := e.U
		if other == v {
			other = e.V
		}
		deg[other]--
		deg[v]--
		r.Weight -= g.Weights[v]
		r.Length -= e.Cost
		if alive[other] && deg[other] == 1 {
			push(other) // its single alive edge is fixed from here on
		}
	}
	// Compact.
	var nodes []int32
	for _, v := range r.Nodes {
		if alive[v] {
			nodes = append(nodes, v)
		}
	}
	var edges []int
	for i, ei := range r.Edges {
		if edgeAlive[i] {
			edges = append(edges, ei)
		}
	}
	r.Nodes, r.Edges = nodes, edges
}

// quotaPruneScan is the original O(|T|²) reference implementation of
// quotaPrune — a full leaf rescan per removal. It is kept as the golden
// oracle: the tests assert quotaPrune produces bit-identical results on
// the same trees.
func quotaPruneScan(g *Graph, r *Result, quota int64) {
	if len(r.Nodes) <= 1 {
		return
	}
	deg := make(map[int32]int, len(r.Nodes))
	inc := make(map[int32][]int, len(r.Nodes))
	alive := make(map[int32]bool, len(r.Nodes))
	edgeAlive := make([]bool, len(r.Edges))
	for _, v := range r.Nodes {
		alive[v] = true
	}
	for i, ei := range r.Edges {
		e := g.Edges[ei]
		deg[e.U]++
		deg[e.V]++
		inc[e.U] = append(inc[e.U], i)
		inc[e.V] = append(inc[e.V], i)
		edgeAlive[i] = true
	}
	for {
		bestLeaf := int32(-1)
		bestEdge := -1
		bestScore := math.Inf(-1)
		for _, v := range r.Nodes {
			if !alive[v] || deg[v] != 1 {
				continue
			}
			if r.Weight-g.Weights[v] < quota {
				continue
			}
			ei := -1
			for _, i := range inc[v] {
				if edgeAlive[i] {
					ei = i
					break
				}
			}
			if ei < 0 {
				continue
			}
			score := pruneScore(g.Edges[r.Edges[ei]].Cost, g.Weights[v])
			if score > bestScore {
				bestScore = score
				bestLeaf = v
				bestEdge = ei
			}
		}
		if bestLeaf < 0 {
			break
		}
		e := g.Edges[r.Edges[bestEdge]]
		if e.Cost <= 0 && g.Weights[bestLeaf] > 0 {
			break
		}
		alive[bestLeaf] = false
		edgeAlive[bestEdge] = false
		other := e.U
		if other == bestLeaf {
			other = e.V
		}
		deg[other]--
		deg[bestLeaf]--
		r.Weight -= g.Weights[bestLeaf]
		r.Length -= e.Cost
	}
	var nodes []int32
	for _, v := range r.Nodes {
		if alive[v] {
			nodes = append(nodes, v)
		}
	}
	var edges []int
	for i, ei := range r.Edges {
		if edgeAlive[i] {
			edges = append(edges, ei)
		}
	}
	r.Nodes, r.Edges = nodes, edges
}

// SPT is a cheap quota solver used as an ablation baseline: grow a
// shortest-path ball from each of the heaviest seed nodes until the quota
// is met, keep the best (shortest) resulting shortest-path tree, then
// quota-prune it. It is the allocating reference for SPTSolver, which
// production code runs.
type SPT struct {
	g     *Graph
	seeds int
}

// NewSPT returns an SPT solver trying the given number of seeds (clamped
// to at least 1).
func NewSPT(g *Graph, seeds int) *SPT {
	if seeds < 1 {
		seeds = 1
	}
	return &SPT{g: g, seeds: seeds}
}

// Tree implements Solver.
func (s *SPT) Tree(quota int64) (Result, bool, error) {
	if s.g.N == 0 {
		return Result{}, false, nil
	}
	// Seed candidates: heaviest nodes first.
	order := make([]int, s.g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return s.g.Weights[order[i]] > s.g.Weights[order[j]] })
	var best *Result
	tries := s.seeds
	if tries > len(order) {
		tries = len(order)
	}
	for k := 0; k < tries; k++ {
		if r := s.fromSeed(order[k], quota); r != nil {
			if best == nil || r.Length < best.Length {
				best = r
			}
		}
	}
	if best == nil {
		return Result{}, false, nil
	}
	quotaPrune(s.g, best, quota)
	return *best, true, nil
}

func (s *SPT) fromSeed(seed int, quota int64) *Result {
	type item struct {
		dist float64
		v    int32
	}
	dist := make([]float64, s.g.N)
	parentEdge := make([]int32, s.g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
		parentEdge[i] = -1
	}
	dist[seed] = 0
	h := container.NewHeap[item](func(a, b item) bool { return a.dist < b.dist })
	h.Push(item{0, int32(seed)})
	settled := make([]bool, s.g.N)
	var res Result
	var acc int64
	met := false
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		if settled[it.v] {
			continue
		}
		settled[it.v] = true
		res.Nodes = append(res.Nodes, it.v)
		if parentEdge[it.v] >= 0 {
			res.Edges = append(res.Edges, int(parentEdge[it.v]))
			res.Length += s.g.Edges[parentEdge[it.v]].Cost
		}
		acc += s.g.Weights[it.v]
		if acc >= quota {
			met = true
			break
		}
		for _, he := range s.g.adj[it.v] {
			nd := it.dist + s.g.Edges[he.edge].Cost
			if nd < dist[he.to] {
				dist[he.to] = nd
				parentEdge[he.to] = he.edge
				h.Push(item{nd, he.to})
			}
		}
	}
	if !met {
		return nil
	}
	res.Weight = acc
	sort.Slice(res.Nodes, func(i, j int) bool { return res.Nodes[i] < res.Nodes[j] })
	return &res
}
