package core

import (
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/kmst"
)

// SolverKind selects the quota-tree solver APP's binary search drives.
type SolverKind int

const (
	// SolverGarg is the GW-based Garg-style solver (the paper's choice).
	SolverGarg SolverKind = iota
	// SolverSPT is the cheap shortest-path-tree heuristic (ablation).
	SolverSPT
)

// APPOptions configures the approximation algorithm of §4.
type APPOptions struct {
	// Alpha is the node-weight scaling parameter α (paper default 0.5 on
	// NY, 0.1 on USANW). Zero selects 0.5.
	Alpha float64
	// Beta is the binary-search slack β (paper default 0.1). Zero selects 0.1.
	Beta float64
	// Solver picks the quota-tree solver (default SolverGarg).
	Solver SolverKind
	// Trace, when non-nil, receives one entry per binary-search step —
	// the columns of Table 1.
	Trace *[]TraceStep
}

// TraceStep is one row of the binary search illustration (Table 1).
type TraceStep struct {
	L, U, X float64
	TCLen   float64 // length of kMST(X); +Inf when infeasible
	X2      float64 // (1+β)X, 0 when not probed
	TC2Len  float64 // length of kMST((1+β)X); +Inf when infeasible
}

func (o APPOptions) withDefaults() APPOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.Beta == 0 {
		o.Beta = 0.1
	}
	return o
}

// APP answers an LCMSR query on the working instance with length budget
// delta, following Algorithm 1: scale weights (§4.1), binary-search a
// node-weight quota against the k-MST solver until the candidate tree TC
// satisfies Lemma 4, then extract the best feasible subtree of TC with the
// findOptTree dynamic program. The result carries the original weights; a
// nil region (with nil error) means no node in the instance is relevant.
//
// APP is the allocating reference implementation: tests compare SolveAPP
// against it, and every production caller runs SolveAPP.
func APP(in *Instance, delta float64, opts APPOptions) (*Region, error) {
	opts = opts.withDefaults()
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	sc, err := Scale(in, opts.Alpha)
	if err != nil {
		if in.NumNodes > 0 {
			// No relevant node: the query has an empty answer, not an error.
			return nil, nil
		}
		return nil, err
	}
	qg, err := kmst.New(in.NumNodes, in.pcstEdges(), sc.Scaled)
	if err != nil {
		return nil, err
	}
	var solver kmst.Solver
	switch opts.Solver {
	case SolverSPT:
		solver = kmst.NewSPT(qg, 8)
	default:
		solver = kmst.NewGarg(qg)
	}

	tc, ok, err := binarySearch(sc, solver, delta, opts.Beta, opts.Trace, nil)
	if err != nil {
		return nil, err
	}
	_, argmax := in.MaxWeight()
	fallback := singleton(in, sc, argmax)
	if !ok {
		// Even the lightest quota produced nothing useful; answer with the
		// single most relevant node, which is always feasible (length 0).
		return fallback, nil
	}

	// Algorithm 1, line 3: a candidate tree already within the budget is
	// returned as-is; otherwise extract the best subtree by DP.
	if tc.Length < delta {
		r := resultFromTree(in, sc, tc)
		if fallback.betterScore(r) {
			r = fallback
		}
		return r, nil
	}
	best := findOptTree(in, sc, tc.Nodes, toInt32(tc.Edges), delta)
	if fallback.betterScore(best) {
		best = fallback
	}
	return best, nil
}

// binarySearch is Function binarySearch() of §4.2.2: find a quota X whose
// tree TC has length ≤ 3Q.∆ while the tree under (1+β)X is longer than
// 3Q.∆ (Lemma 4). Lemma 5 provides the bounds: L = σ̂max (the best region
// weighs at least the best single node) and U = Σσ̂ (it cannot exceed the
// region's total). Infeasible quotas behave as length +∞. A non-nil chk
// aborts the search between quota probes once cancellation is observed;
// the caller surfaces chk.Err(). A solver error aborts the search — the
// query fails typed instead of the solver panicking the process.
func binarySearch(sc *Scaling, solver kmst.Solver, delta, beta float64, trace *[]TraceStep, chk *cancel.Check) (kmst.Result, bool, error) {
	lo := float64(sc.MaxHat)
	hi := float64(sc.SumHat)
	var have kmst.Result
	found := false

	solve := func(x float64) (kmst.Result, float64, error) {
		q := int64(math.Ceil(x))
		if q < 1 {
			q = 1
		}
		r, ok, err := solver.Tree(q)
		if err != nil {
			return kmst.Result{}, math.Inf(1), err
		}
		if !ok {
			return kmst.Result{}, math.Inf(1), nil
		}
		return r, r.Length, nil
	}

	// The search interval is over integers once quotas are ceiled, so
	// log2(U-L) iterations suffice; the cap also guards degenerate floats.
	for iter := 0; iter < 64 && hi-lo >= 1; iter++ {
		if chk.Now() {
			return kmst.Result{}, false, nil
		}
		x := (lo + hi) / 2
		tc, lenTC, err := solve(x)
		if err != nil {
			return kmst.Result{}, false, err
		}
		step := TraceStep{L: lo, U: hi, X: x, TCLen: lenTC}
		if lenTC > 3*delta {
			hi = x
			if trace != nil {
				*trace = append(*trace, step)
			}
			continue
		}
		// TC is acceptable; remember the best (heaviest) one seen.
		if !found || tc.Weight > have.Weight || (tc.Weight == have.Weight && tc.Length < have.Length) {
			have = tc
			found = true
		}
		x2 := (1 + beta) * x
		tc2, lenTC2, err := solve(x2)
		if err != nil {
			return kmst.Result{}, false, err
		}
		step.X2, step.TC2Len = x2, lenTC2
		if trace != nil {
			*trace = append(*trace, step)
		}
		if lenTC2 > 3*delta {
			// Lemma 4 is satisfied: TC.ŝ > RSopt.ŝ/(1+β).
			return tc, true, nil
		}
		// (1+β)X is still feasible, so RSopt.ŝ ≥ (1+β)X: raise the floor.
		if tc2.Weight > have.Weight || (tc2.Weight == have.Weight && tc2.Length < have.Length) {
			have = tc2
		}
		lo = x
	}
	// Interval exhausted without triggering Lemma 4 (e.g. the whole region
	// graph fits in 3Q.∆). The heaviest feasible tree seen plays TC.
	if found {
		return have, true, nil
	}
	if chk.Now() {
		return kmst.Result{}, false, nil
	}
	// Try the lower bound itself (single heaviest node quota).
	tc, lenTC, err := solve(lo)
	if err != nil {
		return kmst.Result{}, false, err
	}
	if !math.IsInf(lenTC, 1) && lenTC <= 3*delta {
		return tc, true, nil
	}
	return kmst.Result{}, false, nil
}

// resultFromTree converts a quota-solver tree into a Region with exact
// weights.
func resultFromTree(in *Instance, sc *Scaling, t kmst.Result) *Region {
	r := &Region{
		Length: t.Length,
		Nodes:  append([]int32(nil), t.Nodes...),
		Edges:  toInt32(t.Edges),
	}
	for _, v := range t.Nodes {
		r.Score += in.Weights[v]
		r.Scaled += sc.Scaled[v]
	}
	return r
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
