package core

import (
	"context"
	"sort"
)

// The top-k LCMSR query (§6.2) returns the k best-scoring feasible
// regions. Regions are pairwise node-disjoint — the natural reading of
// "k best regions" for user exploration (a region and itself minus one
// node are not two answers), and exactly how the paper's Greedy variant
// behaves (each next region is seeded outside all previous ones).
//
// Rank 1 comes from the algorithm's native machinery (tuple arrays for
// APP/TGEN). Later ranks re-run the algorithm on the instance with the
// previous regions' nodes removed; the per-node tuple arrays of a single
// run concentrate on the best cluster, so re-running after exclusion is
// what actually yields k distinct exploration areas.
//
// Every rank is one pooled single-region solve on the caller's
// SolveScratch, so top-K runs the same solvers as a single-region request
// and honors ctx mid-rank through their checkpoints: a cancel returns
// ctx.Err() within a bounded number of solver iterations. Each rank's
// region is copied out of the scratch before the next rank solves, so
// the returned regions are the caller's and s may be reused at once.

// TopKAPP returns up to k disjoint regions, each rank solved by SolveAPP
// (§4) on s.
func TopKAPP(ctx context.Context, s *SolveScratch, in *Instance, delta float64, k int, opts APPOptions) ([]*Region, error) {
	return topKByExclusion(ctx, in, delta, k, func(sub *Instance) (*Region, error) {
		return SolveAPP(ctx, s, sub, delta, opts)
	})
}

// TopKTGEN returns up to k disjoint regions, each rank solved by
// SolveTGEN (§5) on s. TGEN's α is resized for each shrunken instance so
// the scaled-weight granularity σ̂max stays constant across ranks.
func TopKTGEN(ctx context.Context, s *SolveScratch, in *Instance, delta float64, k int, opts TGENOptions) ([]*Region, error) {
	opts = opts.withDefaults()
	granularity := float64(in.NumNodes) / opts.Alpha // σ̂max regime to hold
	if granularity < 1 {
		granularity = 1
	}
	return topKByExclusion(ctx, in, delta, k, func(sub *Instance) (*Region, error) {
		o := opts
		o.Alpha = float64(sub.NumNodes) / granularity
		if o.Alpha < 1 {
			o.Alpha = 1
		}
		return SolveTGEN(ctx, s, sub, delta, o)
	})
}

// TopKGreedy returns up to k disjoint regions by repeated greedy growth
// (§6.2) on s, seeding each next region at the heaviest node outside all
// previous regions.
func TopKGreedy(ctx context.Context, s *SolveScratch, in *Instance, delta float64, k int, opts GreedyOptions) ([]*Region, error) {
	if k <= 0 {
		return nil, nil
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sigmaMax, _ := in.MaxWeight()
	if sigmaMax <= 0 {
		return nil, nil
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	banned := make([]bool, in.NumNodes)
	var out []*Region
	for len(out) < k {
		if s.cancel.Now() {
			return out, s.cancel.Err()
		}
		// Heaviest unbanned node seeds the next region.
		seed := NodeID(-1)
		bestW := 0.0
		for v := 0; v < in.NumNodes; v++ {
			if !banned[v] && in.Weights[v] > bestW {
				bestW, seed = in.Weights[v], NodeID(v)
			}
		}
		if seed < 0 {
			break
		}
		// A fresh Region per rank: it is the caller's copy.
		r := greedyFrom(in, delta, opts.Mu, sigmaMax, seed, banned, &s.inRegion, &Region{}, &s.cancel)
		if s.cancel.Cancelled() {
			return out, s.cancel.Err()
		}
		out = append(out, r)
		for _, v := range r.Nodes {
			banned[v] = true
		}
	}
	return out, nil
}

// topKByExclusion runs solve on progressively shrunken instances: after
// each region is found, its nodes are removed and the next rank is solved
// on the remainder. Each rank's region is copied out (remapped to the
// original instance's node and edge IDs) before the next solve, so solve
// may return a region that dies at its next call.
func topKByExclusion(ctx context.Context, in *Instance, delta float64, k int, solve func(*Instance) (*Region, error)) ([]*Region, error) {
	if k <= 0 {
		return nil, nil
	}
	banned := make([]bool, in.NumNodes)
	var out []*Region
	for len(out) < k {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		sub := excludeNodes(in, banned)
		if sub.in.NumNodes == 0 {
			break
		}
		if w, _ := sub.in.MaxWeight(); w <= 0 {
			break // nothing relevant remains
		}
		r, err := solve(sub.in)
		if err != nil {
			return out, err
		}
		if r == nil || r.Score <= 0 {
			break
		}
		mapped := sub.remap(r)
		out = append(out, mapped)
		for _, v := range mapped.Nodes {
			banned[v] = true
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].betterScore(out[j]) })
	return out, nil
}

// subInstance is a shrunken instance plus the mappings back to the
// original node and edge IDs.
type subInstance struct {
	in       *Instance
	nodeOrig []int32
	edgeOrig []int32
}

// excludeNodes builds the sub-instance without banned nodes.
func excludeNodes(in *Instance, banned []bool) subInstance {
	toLocal := make([]int32, in.NumNodes)
	var nodeOrig []int32
	n := 0
	for v := 0; v < in.NumNodes; v++ {
		if banned[v] {
			toLocal[v] = -1
			continue
		}
		toLocal[v] = int32(n)
		nodeOrig = append(nodeOrig, int32(v))
		n++
	}
	var edges []Edge
	var edgeOrig []int32
	for i, e := range in.Edges {
		lu, lv := toLocal[e.U], toLocal[e.V]
		if lu >= 0 && lv >= 0 {
			edges = append(edges, Edge{U: lu, V: lv, Length: e.Length})
			edgeOrig = append(edgeOrig, int32(i))
		}
	}
	weights := make([]float64, n)
	for v := 0; v < in.NumNodes; v++ {
		if toLocal[v] >= 0 {
			weights[toLocal[v]] = in.Weights[v]
		}
	}
	sub, err := NewInstance(n, edges, weights)
	if err != nil {
		// The sub-instance is derived from a valid instance; failure here
		// is a programming error.
		panic(err)
	}
	return subInstance{in: sub, nodeOrig: nodeOrig, edgeOrig: edgeOrig}
}

// remap rewrites a region of the sub-instance in the original IDs.
func (s subInstance) remap(r *Region) *Region {
	out := &Region{
		Length: r.Length,
		Score:  r.Score,
		Scaled: r.Scaled,
		Nodes:  make([]int32, len(r.Nodes)),
		Edges:  make([]int32, len(r.Edges)),
	}
	for i, v := range r.Nodes {
		out.Nodes[i] = s.nodeOrig[v]
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i] < out.Nodes[j] })
	for i, e := range r.Edges {
		out.Edges[i] = s.edgeOrig[e]
	}
	return out
}
