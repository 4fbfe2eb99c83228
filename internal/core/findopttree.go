package core

// findOptTree is the pseudo-polynomial dynamic program of §4.2.3: given a
// candidate tree TC (nodes and edge indices of the instance), it finds the
// feasible region (length ≤ delta) with the largest scaled weight that is
// a subtree of TC. Each tree node carries a region tuple array
// (Definition 5) holding, per scaled weight, the minimum-length region
// rooted at it; leaves are peeled one by one and their arrays folded into
// their remaining neighbour exactly as Function findOptTree() does
// (Lemma 7). Regions longer than delta are pruned eagerly: extending a
// region never shortens it, so infeasible tuples cannot contribute.
func findOptTree(in *Instance, sc *Scaling, treeNodes []int32, treeEdges []int32, delta float64) *Region {
	if len(treeNodes) == 0 {
		return nil
	}
	// Local adjacency of the tree.
	adj := make(map[int32][]Halfedge, len(treeNodes))
	deg := make(map[int32]int, len(treeNodes))
	for _, ei := range treeEdges {
		e := in.Edges[ei]
		adj[e.U] = append(adj[e.U], Halfedge{To: e.V, Edge: ei})
		adj[e.V] = append(adj[e.V], Halfedge{To: e.U, Edge: ei})
		deg[e.U]++
		deg[e.V]++
	}

	arrays := make(map[int32]tupleArray, len(treeNodes))
	var best *Region
	// As in TGEN, the reported best region uses original weights; the
	// arrays themselves stay keyed by scaled weight (Definition 5).
	consider := func(r *Region) {
		if r.Length <= delta && r.betterScore(best) {
			best = r
		}
	}
	for _, v := range treeNodes {
		ta := make(tupleArray)
		s := singleton(in, sc, v)
		ta.update(s)
		arrays[v] = ta
		consider(s)
	}

	// Leaf-peeling queue (paper's nodeQ): nodes with one remaining
	// neighbour; a single-node tree is already handled by the singletons.
	removed := make(map[int32]bool, len(treeNodes))
	var queue []int32
	for _, v := range treeNodes {
		if deg[v] == 1 {
			queue = append(queue, v)
		}
	}
	remaining := len(treeNodes)
	for len(queue) > 0 && remaining > 1 {
		v := queue[0]
		queue = queue[1:]
		if removed[v] {
			continue
		}
		// v's single remaining neighbour vn (the parent, per Lemma 6).
		var vn int32 = -1
		var edgeIdx int32
		for _, he := range adj[v] {
			if !removed[he.To] {
				vn, edgeIdx = he.To, he.Edge
				break
			}
		}
		if vn < 0 {
			break // isolated remnant; defensive
		}
		// Fold v's array into vn's (Lemma 7): every region rooted at vn
		// (including the {vn} singleton) combines with every region
		// rooted at v through the connecting edge.
		vArr, vnArr := arrays[v], arrays[vn]
		// Materialize vn's current tuples first so newly added ones are
		// not combined with vArr again (they already contain v's side).
		current := make([]*Region, 0, len(vnArr))
		for _, t1 := range vnArr {
			current = append(current, t1)
		}
		for _, t2 := range vArr {
			for _, t1 := range current {
				nr := combine(in, t1, t2, edgeIdx)
				if nr.Length > delta {
					continue
				}
				if vnArr.update(nr) {
					consider(nr)
				}
			}
		}
		removed[v] = true
		delete(arrays, v)
		remaining--
		deg[vn]--
		if deg[vn] == 1 {
			queue = append(queue, vn)
		}
	}
	return best
}
