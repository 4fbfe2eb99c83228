// Package pcst implements the Goemans–Williamson primal–dual approximation
// for the (unrooted) prize-collecting Steiner tree problem — the "general
// approximation technique for constrained forest problems" [9] that Garg's
// k-MST 3-approximation [8] is built on, which in turn is the solver APP
// invokes during its binary search (§4.2 of the paper).
//
// Given an undirected graph with non-negative edge costs c(e) and node
// prizes π(v), the algorithm grows moats (dual variables) uniformly around
// active clusters; an edge becomes part of the forest when the moats along
// it are tight, and a cluster deactivates when its prize budget is
// exhausted. A final strong-pruning pass (Johnson–Minkoff–Phillips) keeps,
// inside each forest component, the subtree with the best net worth
// Σπ − Σc. The classic guarantee is a 2-approximation for the PCST
// objective min c(T) + π(V \ T).
//
// # Pooling ownership
//
// The package-level Solve allocates its working state per run. The pooled
// Solver type runs the identical algorithm (golden-tested bit-identical)
// from reusable state with zero steady-state allocations; it serves one
// goroutine. Trees returned by Solver.Solve alias the solver's arenas and
// stay valid across later Solve calls — the kmst λ-cache retains them —
// until Solver.Reset reclaims them all at once.
package pcst

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/container"
)

// Edge is an undirected edge with a non-negative cost.
type Edge struct {
	U, V int32
	Cost float64
}

// Graph is the PCST input: a node count, an edge list, and per-node prizes.
type Graph struct {
	N      int
	Edges  []Edge
	Prizes []float64
}

// Validate checks structural invariants and returns a descriptive error.
func (g *Graph) Validate() error {
	if len(g.Prizes) != g.N {
		return fmt.Errorf("pcst: %d prizes for %d nodes", len(g.Prizes), g.N)
	}
	for i, p := range g.Prizes {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("pcst: node %d has invalid prize %v", i, p)
		}
	}
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("pcst: edge %d endpoints (%d,%d) out of range", i, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("pcst: edge %d is a self loop", i)
		}
		if e.Cost < 0 || math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0) {
			return fmt.Errorf("pcst: edge %d has invalid cost %v", i, e.Cost)
		}
	}
	return nil
}

// Tree is a connected subtree of the input graph.
type Tree struct {
	Nodes []int32 // sorted ascending
	Edges []int   // indices into Graph.Edges
	Cost  float64 // Σ c(e) over Edges
	Prize float64 // Σ π(v) over Nodes
}

// NetWorth returns Prize − Cost, the quantity strong pruning maximizes.
func (t *Tree) NetWorth() float64 { return t.Prize - t.Cost }

const eps = 1e-9

type cluster struct {
	members   []int32
	active    bool
	potential float64 // remaining prize budget at time lastT
	lastT     float64
}

type eventKind uint8

const (
	evEdge eventKind = iota
	evDeath
)

type event struct {
	time float64
	kind eventKind
	id   int // edge index, or cluster representative node
}

// Solve runs GW moat growing followed by strong pruning and returns one
// pruned candidate tree per forest component (components whose pruned tree
// is a single node with zero prize are dropped). Trees are sorted by
// decreasing net worth. Solve is the allocating reference for Solver,
// which production code runs.
func Solve(g *Graph) ([]Tree, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	forest := growForest(g)
	comps := forestComponents(g, forest)
	var out []Tree
	for _, comp := range comps {
		t := strongPrune(g, comp)
		if len(t.Nodes) == 1 && t.Prize <= 0 {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NetWorth() > out[j].NetWorth() })
	return out, nil
}

// growForest runs the primal–dual moat growing and returns the indices of
// the forest edges picked by merge events.
func growForest(g *Graph) []int {
	n := g.N
	uf := container.NewUnionFind(n)
	clusters := make([]*cluster, n)
	dual := make([]float64, n) // flushed dual contribution per node
	activeCount := 0
	for v := 0; v < n; v++ {
		c := &cluster{members: []int32{int32(v)}, potential: g.Prizes[v]}
		c.active = g.Prizes[v] > eps
		if c.active {
			activeCount++
		}
		clusters[v] = c
	}

	pq := container.NewHeap[event](func(a, b event) bool { return a.time < b.time })
	for v := 0; v < n; v++ {
		if clusters[v].active {
			pq.Push(event{time: clusters[v].potential, kind: evDeath, id: v})
		}
	}
	// Edges whose last event computation found both sides inactive. They
	// re-enter the queue whenever a merge creates a new active cluster,
	// because that is the only way a dead side can start growing again.
	var dormant []int
	for i := range g.Edges {
		if t, ok := edgeEventTime(g, uf, clusters, dual, i, 0); ok {
			pq.Push(event{time: t, kind: evEdge, id: i})
		} else {
			ru, rv := uf.Find(int(g.Edges[i].U)), uf.Find(int(g.Edges[i].V))
			if ru != rv {
				dormant = append(dormant, i)
			}
		}
	}

	flush := func(root int, now float64) {
		c := clusters[root]
		if c.active && now > c.lastT {
			dt := now - c.lastT
			for _, m := range c.members {
				dual[m] += dt
			}
			c.potential -= dt
		}
		c.lastT = now
	}

	var forest []int
	for activeCount > 0 {
		ev, ok := pq.Pop()
		if !ok {
			break
		}
		switch ev.kind {
		case evDeath:
			root := uf.Find(ev.id)
			c := clusters[root]
			if !c.active {
				continue // stale
			}
			trueDeath := c.lastT + c.potential
			if trueDeath > ev.time+eps {
				pq.Push(event{time: trueDeath, kind: evDeath, id: root})
				continue
			}
			flush(root, ev.time)
			c.active = false
			activeCount--
		case evEdge:
			e := g.Edges[ev.id]
			ru, rv := uf.Find(int(e.U)), uf.Find(int(e.V))
			if ru == rv {
				continue // became internal
			}
			t, ok := edgeEventTime(g, uf, clusters, dual, ev.id, ev.time)
			if !ok {
				dormant = append(dormant, ev.id)
				continue
			}
			if t > ev.time+eps {
				pq.Push(event{time: t, kind: evEdge, id: ev.id})
				continue
			}
			// Fire: flush both clusters to now and merge.
			flush(ru, ev.time)
			flush(rv, ev.time)
			cu, cv := clusters[ru], clusters[rv]
			wasActiveU, wasActiveV := cu.active, cv.active
			uf.Union(ru, rv)
			root := uf.Find(ru)
			merged := &cluster{
				active:    true,
				potential: math.Max(cu.potential, 0) + math.Max(cv.potential, 0),
				lastT:     ev.time,
			}
			// Merge member lists smaller-into-larger.
			if len(cu.members) < len(cv.members) {
				cu, cv = cv, cu
			}
			merged.members = append(cu.members, cv.members...)
			clusters[root] = merged
			forest = append(forest, ev.id)
			switch {
			case wasActiveU && wasActiveV:
				activeCount--
			case !wasActiveU && !wasActiveV:
				activeCount++
			}
			if merged.potential <= eps {
				merged.active = false
				activeCount--
			} else {
				pq.Push(event{time: ev.time + merged.potential, kind: evDeath, id: root})
				// A new active cluster exists: dormant edges may fire again.
				if len(dormant) > 0 {
					still := dormant[:0]
					for _, ei := range dormant {
						if t2, ok := edgeEventTime(g, uf, clusters, dual, ei, ev.time); ok {
							pq.Push(event{time: t2, kind: evEdge, id: ei})
						} else if uf.Find(int(g.Edges[ei].U)) != uf.Find(int(g.Edges[ei].V)) {
							still = append(still, ei)
						}
					}
					dormant = still
				}
			}
		}
	}
	return forest
}

// edgeEventTime computes the next firing time of edge i given the state at
// time now. ok is false when the edge cannot currently fire (same cluster
// or both sides inactive).
func edgeEventTime(g *Graph, uf *container.UnionFind, clusters []*cluster, dual []float64, i int, now float64) (float64, bool) {
	e := g.Edges[i]
	ru, rv := uf.Find(int(e.U)), uf.Find(int(e.V))
	if ru == rv {
		return 0, false
	}
	cu, cv := clusters[ru], clusters[rv]
	dU := dual[e.U]
	if cu.active {
		dU += now - cu.lastT
	}
	dV := dual[e.V]
	if cv.active {
		dV += now - cv.lastT
	}
	rate := 0.0
	if cu.active {
		rate++
	}
	if cv.active {
		rate++
	}
	if rate == 0 {
		return 0, false
	}
	slack := e.Cost - dU - dV
	if slack < 0 {
		slack = 0
	}
	return now + slack/rate, true
}

// forestComponents groups the forest edges into connected components and
// returns, per component, the node set and the component's forest edges.
type component struct {
	nodes []int32
	edges []int
}

func forestComponents(g *Graph, forest []int) []component {
	uf := container.NewUnionFind(g.N)
	for _, ei := range forest {
		uf.Union(int(g.Edges[ei].U), int(g.Edges[ei].V))
	}
	byRoot := make(map[int]*component)
	for v := 0; v < g.N; v++ {
		r := uf.Find(v)
		c, ok := byRoot[r]
		if !ok {
			c = &component{}
			byRoot[r] = c
		}
		c.nodes = append(c.nodes, int32(v))
	}
	for _, ei := range forest {
		r := uf.Find(int(g.Edges[ei].U))
		byRoot[r].edges = append(byRoot[r].edges, ei)
	}
	out := make([]component, 0, len(byRoot))
	for _, c := range byRoot {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].nodes[0] < out[j].nodes[0] })
	return out
}

// strongPrune keeps, within one forest component, the subtree maximizing
// net worth. It roots the component at its maximum-prize node, computes
// net(v) = π(v) + Σ_children max(0, net(c) − cost(v,c)) bottom-up, drops
// non-contributing branches, and finally re-roots on the best subtree node.
func strongPrune(g *Graph, comp component) Tree {
	// Build adjacency within the component.
	type he struct {
		to   int32
		edge int
	}
	adj := make(map[int32][]he, len(comp.nodes))
	for _, ei := range comp.edges {
		e := g.Edges[ei]
		adj[e.U] = append(adj[e.U], he{to: e.V, edge: ei})
		adj[e.V] = append(adj[e.V], he{to: e.U, edge: ei})
	}
	root := comp.nodes[0]
	for _, v := range comp.nodes {
		if g.Prizes[v] > g.Prizes[root] {
			root = v
		}
	}

	// Iterative post-order DFS.
	type frame struct {
		v, parent  int32
		parentEdge int
		childIdx   int
	}
	net := make(map[int32]float64, len(comp.nodes))
	keepChild := make(map[int32][]he) // children kept by pruning
	order := make([]frame, 0, len(comp.nodes))
	stack := []frame{{v: root, parent: -1, parentEdge: -1}}
	visited := make(map[int32]bool, len(comp.nodes))
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[f.v] {
			continue
		}
		visited[f.v] = true
		order = append(order, f)
		for _, h := range adj[f.v] {
			if h.to != f.parent {
				stack = append(stack, frame{v: h.to, parent: f.v, parentEdge: h.edge})
			}
		}
	}
	// Process in reverse DFS discovery order = children before parents.
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		n := g.Prizes[f.v]
		for _, h := range adj[f.v] {
			if h.to == f.parent {
				continue
			}
			margin := net[h.to] - g.Edges[h.edge].Cost
			if margin > eps {
				n += margin
				keepChild[f.v] = append(keepChild[f.v], h)
			}
		}
		net[f.v] = n
	}

	// Collect the kept subtree from the root.
	t := Tree{}
	var walk func(v int32)
	walk = func(v int32) {
		t.Nodes = append(t.Nodes, v)
		t.Prize += g.Prizes[v]
		for _, h := range keepChild[v] {
			t.Edges = append(t.Edges, h.edge)
			t.Cost += g.Edges[h.edge].Cost
			walk(h.to)
		}
	}
	walk(root)
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i] < t.Nodes[j] })
	return t
}
