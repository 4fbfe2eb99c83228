package core

import (
	"fmt"
	"math"
	"sort"
)

// EdgeOrder selects the order in which TGEN processes edges. §5 discusses
// alternatives: "We can process the edges in other orders (e.g., the edges
// can be processed in ascending order of their lengths). However, ... the
// accuracy only varies slightly while the order we adopt yields better
// efficiency."
type EdgeOrder int

const (
	// OrderBFS visits nodes breadth-first and processes each node's
	// unvisited incident edges (the paper's choice: no sorting cost, and
	// finished nodes drop their tuple arrays).
	OrderBFS EdgeOrder = iota
	// OrderAscLength processes all edges in ascending length order
	// (the alternative §5 mentions; used by the ablation benchmarks).
	OrderAscLength
)

// TGENOptions configures the tuple-generation heuristic of §5.
type TGENOptions struct {
	// Alpha is the scaling parameter. TGEN needs a much coarser scale
	// than APP — the paper tunes α = 400 on NY and α = 300 on USANW so
	// that tuples collide on few scaled-weight values. Zero selects 400.
	Alpha float64
	// Order picks the edge processing order (default OrderBFS).
	Order EdgeOrder
}

func (o TGENOptions) withDefaults() TGENOptions {
	if o.Alpha == 0 {
		o.Alpha = 400
	}
	return o
}

// TGEN answers an LCMSR query with Algorithm 2: it scales node weights,
// visits nodes in breadth-first order, processes every edge exactly once,
// and combines the explored region tuple arrays (Definition 6) of the
// edge's endpoints to enumerate feasible regions, keeping per node and
// scaled weight only the shortest region. Nodes whose incident edges have
// all been processed drop their arrays (§5's memory optimization). A nil
// region with nil error means no relevant node exists.
//
// TGEN is the allocating reference implementation: tests compare
// SolveTGEN against it, and every production caller runs SolveTGEN.
func TGEN(in *Instance, delta float64, opts TGENOptions) (*Region, error) {
	opts = opts.withDefaults()
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	sc, err := Scale(in, opts.Alpha)
	if err != nil {
		if in.NumNodes > 0 {
			return nil, nil
		}
		return nil, err
	}

	arrays := make([]tupleArray, in.NumNodes)
	var best *Region
	// bestR is tracked on the original weights: the tuple arrays must be
	// keyed by scaled weight (Definition 6), but among enumerated feasible
	// regions the answer reported to the user is the truly heaviest one —
	// scaled-weight ties would otherwise pick an arbitrary lighter region.
	consider := func(r *Region) {
		if r.betterScore(best) {
			best = r
		}
	}
	for v := 0; v < in.NumNodes; v++ {
		arrays[v] = make(tupleArray)
		s := singleton(in, sc, NodeID(v))
		arrays[v].update(s)
		consider(s)
	}

	if opts.Order == OrderAscLength {
		tgenAscLength(in, sc, delta, arrays, consider)
		return best, nil
	}

	processed := make([]bool, in.NumNodes)
	enqueued := make([]bool, in.NumNodes)
	edgeDone := make([]bool, len(in.Edges))
	queue := make([]int32, 0, 64)

	for v0 := 0; v0 < in.NumNodes; v0++ {
		if processed[v0] || enqueued[v0] {
			continue
		}
		queue = append(queue[:0], int32(v0))
		enqueued[v0] = true
		for len(queue) > 0 {
			vi := queue[0]
			queue = queue[1:]
			for _, he := range in.Neighbors(vi) {
				if edgeDone[he.Edge] {
					continue
				}
				edgeDone[he.Edge] = true
				vj := he.To
				// Line 8: edges longer than the budget can never appear
				// in a feasible region.
				if in.Edges[he.Edge].Length > delta {
					continue
				}
				if !enqueued[vj] {
					enqueued[vj] = true
					queue = append(queue, vj)
				}
				// Combine every explored region containing vi with every
				// explored region containing vj through this edge.
				viArr, vjArr := arrays[vi], arrays[vj]
				newTuples := make([]*Region, 0, 8)
				for _, t1 := range viArr {
					for _, t2 := range vjArr {
						if t1.sharesNode(t2) {
							continue // Lemma 9: would close a cycle
						}
						nr := combine(in, t1, t2, he.Edge)
						if nr.Length > delta {
							continue
						}
						newTuples = append(newTuples, nr)
					}
				}
				for _, nr := range newTuples {
					consider(nr)
					for _, v := range nr.Nodes {
						if processed[v] {
							continue // discarded arrays stay discarded
						}
						arrays[v].update(nr)
					}
				}
			}
			processed[vi] = true
			arrays[vi] = nil // §5: drop the array once all edges are done
		}
	}
	return best, nil
}

// tgenAscLength is the OrderAscLength variant: identical tuple generation,
// but edges are processed globally in ascending length order. A node's
// array is discarded once all its incident edges are done.
func tgenAscLength(in *Instance, sc *Scaling, delta float64, arrays []tupleArray, consider func(*Region)) {
	order := make([]int32, len(in.Edges))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return in.Edges[order[i]].Length < in.Edges[order[j]].Length
	})
	remaining := make([]int, in.NumNodes)
	for _, e := range in.Edges {
		remaining[e.U]++
		remaining[e.V]++
	}
	finish := func(v int32) {
		remaining[v]--
		if remaining[v] == 0 {
			arrays[v] = nil
		}
	}
	for _, ei := range order {
		e := in.Edges[ei]
		if e.Length > delta {
			finish(e.U)
			finish(e.V)
			continue
		}
		viArr, vjArr := arrays[e.U], arrays[e.V]
		var newTuples []*Region
		for _, t1 := range viArr {
			for _, t2 := range vjArr {
				if t1.sharesNode(t2) {
					continue
				}
				nr := combine(in, t1, t2, ei)
				if nr.Length > delta {
					continue
				}
				newTuples = append(newTuples, nr)
			}
		}
		finish(e.U)
		finish(e.V)
		for _, nr := range newTuples {
			consider(nr)
			for _, v := range nr.Nodes {
				if arrays[v] != nil {
					arrays[v].update(nr)
				}
			}
		}
	}
}
