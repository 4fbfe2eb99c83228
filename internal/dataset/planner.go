package dataset

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// Planner materializes query working graphs with pooled per-worker scratch
// state: a roadnet.Extractor for zero-allocation subgraph extraction, a
// core.Instance whose CSR adjacency is rebuilt in place, reusable
// weight/edge/object buffers, and a core.SolveScratch so the solve phase
// (SolveTGEN/SolveAPP/SolveGreedy) runs allocation-free too. One planner
// serves one query at a time: the QueryInstance returned by Instantiate
// aliases the planner's buffers and is valid only until the next
// Instantiate call on the same planner; a region produced through the
// planner's SolveScratch is valid only until the next solve on it.
//
// A Planner is not safe for concurrent use; pool one per worker (see
// internal/queryengine). Dataset.Instantiate remains the convenience path
// that allocates a fresh planner per call.
type Planner struct {
	d  *Dataset
	ex *roadnet.Extractor

	inst       core.Instance
	weights    []float64
	edges      []core.Edge
	nodeObjs   [][]grid.ObjectID
	nodeScores [][]float64
	qscratch   textindex.QueryScratch
	sscratch   grid.SearchScratch
	strace     grid.SearchTrace
	solve      core.SolveScratch
	qi         QueryInstance
}

// NewPlanner returns a planner with empty scratch state for d.
func (d *Dataset) NewPlanner() *Planner {
	return &Planner{d: d, ex: roadnet.NewExtractor(d.Graph)}
}

// Instantiate restricts the road network to Q.Λ, scores the objects inside
// it against the keywords through the grid index (Equation 2), and
// aggregates object scores onto their road nodes: a node's weight σv is
// the summed relevance of the objects mapped to it, zero for junctions and
// irrelevant objects. The result aliases the planner's pooled buffers.
func (p *Planner) Instantiate(q Query) (*QueryInstance, error) {
	return p.InstantiateCtx(context.Background(), q)
}

// InstantiateCtx is Instantiate with a request context: when the dataset
// has a SearchFunc installed (distributed serving), ctx carries the
// request deadline down to the remote scatter. The local search path
// ignores ctx.
func (p *Planner) InstantiateCtx(ctx context.Context, q Query) (*QueryInstance, error) {
	d := p.d
	// Reads of Vocab/Objects/ObjNode/Ratings race with live mutators;
	// hold the dataset read lock for the whole materialization.
	d.mu.RLock()
	defer d.mu.RUnlock()
	sub := p.ex.ExtractRect(q.Lambda)
	prepared := d.Vocab.PrepareQueryInto(q.Keywords, &p.qscratch)
	// The grid index finds the matching objects (an object matches iff it
	// shares a term with the query, identically under all weight modes);
	// the mode then decides the weight each match contributes. The pooled
	// SearchInto/PrepareQueryInto variants keep the steady-state relevance
	// path allocation-free (the language-model side path still allocates
	// its LMQuery).
	// Tracing points the pooled scratch at the planner's own trace for
	// this one search; untraced queries get a nil Trace so the search
	// stays on its hot branches. The trace is reset here, not by the
	// search, because a distributed search merges several partials into it.
	if q.Trace {
		p.strace.Clear()
		p.sscratch.Trace = &p.strace
	} else {
		p.sscratch.Trace = nil
	}
	var scores []grid.ObjScore
	var err error
	if d.searchFn != nil {
		scores, err = d.searchFn(ctx, prepared, q.Lambda, &p.sscratch)
	} else {
		scores, err = d.Index.SearchInto(prepared, q.Lambda, &p.sscratch)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: index search: %w", err)
	}
	var lm textindex.LMQuery
	if q.Mode == WeightLanguageModel {
		lm = d.Vocab.PrepareLMQuery(q.Keywords, 0)
	}
	n := sub.NumNodes()
	p.weights = growTo(p.weights, n)
	for i := range p.weights {
		p.weights[i] = 0
	}
	p.nodeObjs = resetLists(p.nodeObjs, n)
	p.nodeScores = resetLists(p.nodeScores, n)
	for _, os := range scores {
		parent := d.ObjNode[os.Obj]
		local := sub.Local(parent)
		if local < 0 {
			continue // object inside Λ but its node is outside
		}
		w := os.Score
		switch q.Mode {
		case WeightRating:
			w = d.rating(os.Obj)
		case WeightLanguageModel:
			w = lm.Score(&d.Objects[os.Obj].Doc)
		}
		p.weights[local] += w
		p.nodeObjs[local] = append(p.nodeObjs[local], os.Obj)
		p.nodeScores[local] = append(p.nodeScores[local], os.Score)
	}
	p.edges = p.edges[:0]
	for i := 0; i < sub.NumEdges(); i++ {
		e := sub.Edge(roadnet.EdgeID(i))
		p.edges = append(p.edges, core.Edge{U: int32(e.U), V: int32(e.V), Length: e.Length})
	}
	if err := p.inst.Reset(n, p.edges, p.weights); err != nil {
		return nil, fmt.Errorf("dataset: instance: %w", err)
	}
	p.qi = QueryInstance{In: &p.inst, Sub: sub, NodeObjects: p.nodeObjs, NodeScores: p.nodeScores, Prepared: prepared, Scratch: &p.solve}
	if q.Trace {
		p.qi.SearchTrace = &p.strace
	}
	return &p.qi, nil
}

// resetLists returns n empty per-node lists, keeping the backing arrays
// grown by earlier queries.
func resetLists[T any](lists [][]T, n int) [][]T {
	if cap(lists) < n {
		lists = append(lists[:cap(lists)], make([][]T, n-cap(lists))...)
	}
	lists = lists[:n]
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}

// growTo returns s with length n, reusing its backing array when possible.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
