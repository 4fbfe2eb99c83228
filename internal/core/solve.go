package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/kmst"
	"repro/internal/pcst"
)

// This file holds the pooled solve entry points. SolveTGEN, SolveAPP, and
// SolveGreedy run the same algorithms as TGEN, APP, and Greedy and return
// bit-identical regions (golden-tested in solve_test.go), but draw every
// piece of per-query working state from the SolveScratch, so a warm
// scratch performs zero steady-state allocations per query. The returned
// *Region aliases the scratch and is valid only until the next SolveX call
// on the same scratch.
//
// Each SolveX honors ctx: the hot loops carry amortized cancellation
// checkpoints (internal/cancel), so a cancel observed mid-solve returns
// ctx.Err() within a bounded number of iterations. An abandoned solve
// leaves the scratch safe to reuse — the next solve starts from a full
// reset and produces results bit-identical to a fresh scratch. A
// background context makes every checkpoint free.

// SolveTGEN answers an LCMSR query with the tuple-generation heuristic of
// §5 (see TGEN) using pooled scratch state.
func SolveTGEN(ctx context.Context, s *SolveScratch, in *Instance, delta float64, opts TGENOptions) (*Region, error) {
	opts = opts.withDefaults()
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	if s.cancel.Now() {
		return nil, s.cancel.Err()
	}
	if err := ScaleInto(in, opts.Alpha, &s.scaling); err != nil {
		if in.NumNodes > 0 {
			return nil, nil
		}
		return nil, err
	}

	n := in.NumNodes
	s.ensureArrays(n)
	for v := 0; v < n; v++ {
		sg := s.singleton(in, NodeID(v))
		s.update(int32(v), sg)
		s.considerScore(sg)
	}

	if opts.Order == OrderAscLength {
		s.tgenAscLength(in, delta)
		if s.cancel.Cancelled() {
			return nil, s.cancel.Err()
		}
		return s.bestRegion(), nil
	}

	s.processed.begin(n)
	s.enqueued.begin(n)
	s.edgeDone.begin(len(in.Edges))

	for v0 := 0; v0 < n; v0++ {
		if s.processed.has(int32(v0)) || s.enqueued.has(int32(v0)) {
			continue
		}
		queue := append(s.queue[:0], int32(v0))
		head := 0
		s.enqueued.add(int32(v0))
		for head < len(queue) {
			vi := queue[head]
			head++
			for _, he := range in.Neighbors(vi) {
				// Per-edge checkpoint: the combine loops below are bounded
				// by the tuple-array size (≈ σ̂max), so edge granularity
				// bounds the post-cancel work.
				if s.cancel.Tick() {
					return nil, s.cancel.Err()
				}
				if s.edgeDone.has(he.Edge) {
					continue
				}
				s.edgeDone.add(he.Edge)
				vj := he.To
				// Line 8: edges longer than the budget can never appear
				// in a feasible region.
				if in.Edges[he.Edge].Length > delta {
					continue
				}
				if !s.enqueued.has(vj) {
					s.enqueued.add(vj)
					queue = append(queue, vj)
				}
				// Combine every explored region containing vi with every
				// explored region containing vj through this edge.
				viArr, vjArr := s.arrays[vi], s.arrays[vj]
				newTuples := s.newTuples[:0]
				for _, t1 := range viArr {
					for _, t2 := range vjArr {
						if t1.r.sharesNode(&t2.r.Region) {
							continue // Lemma 9: would close a cycle
						}
						nr := s.combine(in, t1.r, t2.r, he.Edge)
						if nr.Length > delta {
							s.pool.free(nr)
							continue
						}
						newTuples = append(newTuples, nr)
					}
				}
				s.newTuples = newTuples
				for _, nr := range newTuples {
					s.considerScore(nr)
					for _, v := range nr.Nodes {
						if s.processed.has(v) {
							continue // discarded arrays stay discarded
						}
						s.update(v, nr)
					}
					if nr.refs == 0 {
						s.pool.free(nr) // stored nowhere and not the best
					}
				}
			}
			s.processed.add(vi)
			s.dropArray(vi) // §5: drop the array once all edges are done
		}
		s.queue = queue[:0]
	}
	return s.bestRegion(), nil
}

// tgenAscLength is tgenAscLength with pooled state: identical tuple
// generation over edges in ascending length order.
func (s *SolveScratch) tgenAscLength(in *Instance, delta float64) {
	s.order = growTo(s.order, len(in.Edges))
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		// Same predicate as the allocating variant's sort.Slice; pdqsort
		// on equal input yields the same permutation for tied lengths.
		switch {
		case in.Edges[a].Length < in.Edges[b].Length:
			return -1
		case in.Edges[b].Length < in.Edges[a].Length:
			return 1
		default:
			return 0
		}
	})
	s.remaining = growTo(s.remaining, in.NumNodes)
	for i := range s.remaining {
		s.remaining[i] = 0
	}
	for _, e := range in.Edges {
		s.remaining[e.U]++
		s.remaining[e.V]++
	}
	finish := func(v int32) {
		s.remaining[v]--
		if s.remaining[v] == 0 {
			s.dropArray(v)
		}
	}
	for _, ei := range s.order {
		if s.cancel.Tick() {
			return // caller surfaces s.cancel.Err()
		}
		e := in.Edges[ei]
		if e.Length > delta {
			finish(e.U)
			finish(e.V)
			continue
		}
		viArr, vjArr := s.arrays[e.U], s.arrays[e.V]
		newTuples := s.newTuples[:0]
		for _, t1 := range viArr {
			for _, t2 := range vjArr {
				if t1.r.sharesNode(&t2.r.Region) {
					continue
				}
				nr := s.combine(in, t1.r, t2.r, ei)
				if nr.Length > delta {
					s.pool.free(nr)
					continue
				}
				newTuples = append(newTuples, nr)
			}
		}
		s.newTuples = newTuples
		finish(e.U)
		finish(e.V)
		for _, nr := range newTuples {
			s.considerScore(nr)
			for _, v := range nr.Nodes {
				if s.remaining[v] > 0 { // dropped arrays stay dropped
					s.update(v, nr)
				}
			}
			if nr.refs == 0 {
				s.pool.free(nr)
			}
		}
	}
}

// SolveGreedy answers an LCMSR query with the greedy expansion of §6.1
// (see Greedy) using pooled scratch state.
func SolveGreedy(ctx context.Context, s *SolveScratch, in *Instance, delta float64, opts GreedyOptions) (*Region, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	if s.cancel.Now() {
		return nil, s.cancel.Err()
	}
	sigmaMax, seed := in.MaxWeight()
	if seed < 0 {
		return nil, nil
	}
	s.noBan = growTo(s.noBan, in.NumNodes) // never written: stays all-false
	// s.gRegion's Nodes/Edges keep their grown capacity across queries.
	r := greedyFrom(in, delta, opts.Mu, sigmaMax, seed, s.noBan, &s.inRegion, &s.gRegion, &s.cancel)
	if s.cancel.Cancelled() {
		return nil, s.cancel.Err()
	}
	return r, nil
}

// SolveAPP answers an LCMSR query with the (5+ε)-approximation of §4 (see
// APP) using pooled scratch state, including the pooled kmst/pcst solver
// stack.
func SolveAPP(ctx context.Context, s *SolveScratch, in *Instance, delta float64, opts APPOptions) (*Region, error) {
	opts = opts.withDefaults()
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	if s.cancel.Now() {
		return nil, s.cancel.Err()
	}
	if err := ScaleInto(in, opts.Alpha, &s.scaling); err != nil {
		if in.NumNodes > 0 {
			// No relevant node: the query has an empty answer, not an error.
			return nil, nil
		}
		return nil, err
	}
	sc := &s.scaling
	s.pcstEdges = growTo(s.pcstEdges, len(in.Edges))
	for i, e := range in.Edges {
		s.pcstEdges[i] = pcst.Edge{U: e.U, V: e.V, Cost: e.Length}
	}
	var solver kmst.Solver
	switch opts.Solver {
	case SolverSPT:
		if s.spt == nil {
			s.spt = kmst.NewSPTSolver(8)
		}
		if err := s.spt.Reset(in.NumNodes, s.pcstEdges, sc.Scaled); err != nil {
			return nil, err
		}
		s.spt.SetCancel(&s.cancel)
		solver = s.spt
	default:
		if s.garg == nil {
			s.garg = kmst.NewGargSolver()
		}
		if err := s.garg.Reset(in.NumNodes, s.pcstEdges, sc.Scaled); err != nil {
			return nil, err
		}
		s.garg.SetCancel(&s.cancel)
		solver = s.garg
	}

	tc, ok, err := binarySearch(sc, solver, delta, opts.Beta, opts.Trace, &s.cancel)
	if err != nil {
		return nil, err
	}
	if s.cancel.Cancelled() {
		return nil, s.cancel.Err()
	}
	_, argmax := in.MaxWeight()
	fallback := s.singleton(in, argmax)
	if !ok {
		// Even the lightest quota produced nothing useful; answer with the
		// single most relevant node, which is always feasible (length 0).
		return &fallback.Region, nil
	}

	// Algorithm 1, line 3: a candidate tree already within the budget is
	// returned as-is; otherwise extract the best subtree by DP.
	if tc.Length < delta {
		r := s.resultFromTree(in, tc)
		if fallback.Region.betterScore(&r.Region) {
			r = fallback
		}
		return &r.Region, nil
	}
	s.tcEdges = growTo(s.tcEdges, len(tc.Edges))
	for i, x := range tc.Edges {
		s.tcEdges[i] = int32(x)
	}
	best := s.findOptTree(in, tc.Nodes, s.tcEdges, delta)
	if s.cancel.Cancelled() {
		return nil, s.cancel.Err()
	}
	if fallback.Region.betterScore(best) {
		best = &fallback.Region
	}
	return best, nil
}

// resultFromTree converts a quota-solver tree into an arena Region with
// exact weights.
func (s *SolveScratch) resultFromTree(in *Instance, t kmst.Result) *poolRegion {
	r := s.pool.newRegion()
	nodes := s.pool.allocInts(len(t.Nodes))
	copy(nodes, t.Nodes)
	edges := s.pool.allocInts(len(t.Edges))
	for i, x := range t.Edges {
		edges[i] = int32(x)
	}
	r.Region = Region{Length: t.Length, Nodes: nodes, Edges: edges}
	for _, v := range t.Nodes {
		r.Score += in.Weights[v]
		r.Scaled += s.scaling.Scaled[v]
	}
	return r
}

// findOptTree is findOptTree with pooled scratch: the candidate tree is
// remapped to local indices, its adjacency becomes a pooled CSR whose
// per-node order matches the map-based build (tree edge order), and the
// per-node tuple arrays draw from the region arena.
func (s *SolveScratch) findOptTree(in *Instance, treeNodes []int32, treeEdges []int32, delta float64) *Region {
	if len(treeNodes) == 0 {
		return nil
	}
	nt := len(treeNodes)
	s.pos = growTo(s.pos, in.NumNodes)
	for i, v := range treeNodes {
		s.pos[v] = int32(i)
	}
	// Local tree adjacency CSR in tree-edge order.
	s.adjOffs = growTo(s.adjOffs, nt+1)
	for i := 0; i <= nt; i++ {
		s.adjOffs[i] = 0
	}
	for _, ei := range treeEdges {
		e := in.Edges[ei]
		s.adjOffs[s.pos[e.U]+1]++
		s.adjOffs[s.pos[e.V]+1]++
	}
	for i := 0; i < nt; i++ {
		s.adjOffs[i+1] += s.adjOffs[i]
	}
	s.cursor = growTo(s.cursor, nt)
	copy(s.cursor, s.adjOffs[:nt])
	s.adjTo = growTo(s.adjTo, 2*len(treeEdges))
	s.adjEdge = growTo(s.adjEdge, 2*len(treeEdges))
	s.deg = growTo(s.deg, nt)
	for i := 0; i < nt; i++ {
		s.deg[i] = 0
	}
	for _, ei := range treeEdges {
		e := in.Edges[ei]
		lu, lv := s.pos[e.U], s.pos[e.V]
		s.adjTo[s.cursor[lu]] = e.V
		s.adjEdge[s.cursor[lu]] = ei
		s.cursor[lu]++
		s.adjTo[s.cursor[lv]] = e.U
		s.adjEdge[s.cursor[lv]] = ei
		s.cursor[lv]++
		s.deg[lu]++
		s.deg[lv]++
	}

	s.ensureArrays(nt) // local (tree) indexing for this DP
	for i, v := range treeNodes {
		sg := s.singleton(in, v)
		s.update(int32(i), sg)
		s.considerFeasible(sg, delta)
	}

	// Leaf-peeling queue (paper's nodeQ): nodes with one remaining
	// neighbour; a single-node tree is already handled by the singletons.
	s.removed = growTo(s.removed, nt)
	for i := 0; i < nt; i++ {
		s.removed[i] = false
	}
	queue := s.foQueue[:0]
	for _, v := range treeNodes {
		if s.deg[s.pos[v]] == 1 {
			queue = append(queue, v)
		}
	}
	head := 0
	remaining := nt
	for head < len(queue) && remaining > 1 {
		if s.cancel.Tick() {
			return nil // caller surfaces s.cancel.Err()
		}
		v := queue[head]
		head++
		lv := s.pos[v]
		if s.removed[lv] {
			continue
		}
		// v's single remaining neighbour vn (the parent, per Lemma 6).
		var vn int32 = -1
		var edgeIdx int32
		for k := s.adjOffs[lv]; k < s.adjOffs[lv+1]; k++ {
			if !s.removed[s.pos[s.adjTo[k]]] {
				vn, edgeIdx = s.adjTo[k], s.adjEdge[k]
				break
			}
		}
		if vn < 0 {
			break // isolated remnant; defensive
		}
		lvn := s.pos[vn]
		// Fold v's array into vn's (Lemma 7). Materialize vn's current
		// tuples first so newly added ones are not combined with vArr
		// again; guard them with references so an in-fold replacement
		// cannot recycle a region the enumeration still reads.
		vArr := s.arrays[lv]
		snapshot := s.snapshot[:0]
		for _, ent := range s.arrays[lvn] {
			s.pool.ref(ent.r)
			snapshot = append(snapshot, ent.r)
		}
		s.snapshot = snapshot
		for _, t2 := range vArr {
			if s.cancel.Tick() {
				break // unwind via the loop exit; caller checks Cancelled
			}
			for _, t1 := range snapshot {
				nr := s.combine(in, t1, t2.r, edgeIdx)
				if nr.Length > delta {
					s.pool.free(nr)
					continue
				}
				if s.update(lvn, nr) {
					s.considerFeasible(nr, delta)
				}
				if nr.refs == 0 {
					s.pool.free(nr)
				}
			}
		}
		for _, t1 := range snapshot {
			s.pool.deref(t1)
		}
		s.dropArray(lv)
		s.removed[lv] = true
		remaining--
		s.deg[lvn]--
		if s.deg[lvn] == 1 {
			queue = append(queue, vn)
		}
	}
	s.foQueue = queue[:0]
	return s.bestRegion()
}
