package core

import (
	"fmt"
	"math"

	"repro/internal/cancel"
)

// GreedyOptions configures the greedy expansion of §6.1.
type GreedyOptions struct {
	// Mu balances edge length (µ) against node weight (1−µ) in the
	// ranking score ρ(vi) = µ(1 − τ(vi,vj)/τmax) + (1−µ)σvi/σmax.
	// The paper tunes µ = 0.2 on NY and µ = 0.4 on USANW. Negative
	// values are rejected; the zero value selects 0.2.
	Mu float64
	// MuSet forces Mu to be used as-is, allowing an explicit µ = 0
	// (weight-only selection, one of the ablation endpoints).
	MuSet bool
}

func (o GreedyOptions) withDefaults() (GreedyOptions, error) {
	if !o.MuSet && o.Mu == 0 {
		o.Mu = 0.2
	}
	if o.Mu < 0 || o.Mu > 1 || math.IsNaN(o.Mu) {
		return o, fmt.Errorf("core: µ must be in [0,1], got %v", o.Mu)
	}
	return o, nil
}

// Greedy answers an LCMSR query with the method of §6.1: seed the region
// at the most relevant node in Q.Λ, then repeatedly attach the frontier
// node with the best combined score whose connecting edge still fits the
// remaining budget, stopping when no frontier node fits. A nil region with
// nil error means no relevant node exists.
//
// Greedy is the allocating reference implementation: tests compare
// SolveGreedy against it, and every production caller runs SolveGreedy.
func Greedy(in *Instance, delta float64, opts GreedyOptions) (*Region, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	sigmaMax, seed := in.MaxWeight()
	if seed < 0 {
		return nil, nil
	}
	banned := make([]bool, in.NumNodes)
	var inRegion stampSet
	return greedyFrom(in, delta, opts.Mu, sigmaMax, seed, banned, &inRegion, &Region{}, nil), nil
}

// greedyFrom grows one region from the given seed into r, reusing r's
// Nodes/Edges as backing buffers (callers pass a fresh or pooled Region).
// Membership is tracked in the caller's epoch-stamped inRegion set — the
// former map[NodeID]bool — which greedyFrom re-begins; tie-breaking is
// unchanged because the set is only probed, never iterated. Nodes marked
// banned are never added (used by the top-k extension to keep regions
// disjoint). A non-nil chk is polled in the frontier scan; once it fires
// the partially-grown region is returned and the caller surfaces
// chk.Err() (SolveGreedy discards the partial region).
func greedyFrom(in *Instance, delta float64, mu, sigmaMax float64, seed NodeID, banned []bool, inRegion *stampSet, r *Region, chk *cancel.Check) *Region {
	tauMax := in.MaxEdgeLength()
	inRegion.begin(in.NumNodes)
	inRegion.add(seed)
	*r = Region{Score: in.Weights[seed], Nodes: append(r.Nodes[:0], seed), Edges: r.Edges[:0]}

	for {
		// Scan the frontier: nodes adjacent to the region, not banned,
		// whose best connecting edge fits the remaining budget.
		bestScore := math.Inf(-1)
		var bestNode NodeID = -1
		var bestEdge int32 = -1
		remaining := delta - r.Length
		// Iterate the region's sorted node list, not the membership set:
		// iterating an unordered structure would break the engine's
		// guarantee of identical results across runs when scores tie.
		for _, v := range r.Nodes {
			if chk.Tick() {
				return r
			}
			for _, he := range in.Neighbors(NodeID(v)) {
				to := he.To
				if inRegion.has(to) || banned[to] {
					continue
				}
				tau := in.Edges[he.Edge].Length
				if tau > remaining {
					continue
				}
				var lenTerm float64
				if tauMax > 0 {
					lenTerm = 1 - tau/tauMax
				}
				var wTerm float64
				if sigmaMax > 0 {
					wTerm = in.Weights[to] / sigmaMax
				}
				score := mu*lenTerm + (1-mu)*wTerm
				if score > bestScore ||
					(score == bestScore && (to < bestNode ||
						(to == bestNode && he.Edge < bestEdge))) {
					bestScore, bestNode, bestEdge = score, to, he.Edge
				}
			}
		}
		if bestNode < 0 {
			return r
		}
		inRegion.add(bestNode)
		r.Nodes = insertSorted(r.Nodes, bestNode)
		r.Edges = append(r.Edges, bestEdge)
		r.Length += in.Edges[bestEdge].Length
		r.Score += in.Weights[bestNode]
	}
}

func insertSorted(xs []int32, v int32) []int32 {
	i := 0
	for i < len(xs) && xs[i] < v {
		i++
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
