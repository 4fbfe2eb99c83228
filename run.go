package repro

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queryengine"
	"repro/internal/roadnet"
)

// Method selects the query-answering algorithm. It is the engine's
// method enum, so a Method passes to every layer unconverted.
type Method = queryengine.Method

const (
	// MethodTGEN is the tuple-generation heuristic (§5) — the best
	// accuracy and efficiency in the paper's study, and the default.
	MethodTGEN = queryengine.MethodTGEN
	// MethodAPP is the (5+ε)-approximation algorithm (§4).
	MethodAPP = queryengine.MethodAPP
	// MethodGreedy is the fast, lower-accuracy greedy expansion (§6.1).
	MethodGreedy = queryengine.MethodGreedy
	// MethodAuto defers the choice to the server-side cost planner: per
	// request, the planner estimates each solver's cost from the grid's
	// term directories and the instance size, picks the most expensive
	// method affordable within the request's budget (SearchOptions.Budget,
	// else the context deadline), and degrades one rung under queue
	// pressure instead of shedding. Database.Do and Server.Do resolve it;
	// RunBatch requires a concrete method. Set Request.Explain to see the
	// decision in Response.Plan.
	MethodAuto = queryengine.MethodAuto
)

// ParseMethod parses a method name, case-insensitively, round-tripping
// Method.String: ParseMethod(m.String()) == m for every defined method.
// The CLI flag parser and the HTTP front end both use it.
func ParseMethod(s string) (Method, error) {
	for m := MethodTGEN; m <= MethodAuto; m++ {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown method %q (want TGEN, APP, Greedy, or Auto)", s)
}

// checkMethod rejects a Method value outside the defined set.
func checkMethod(m Method) error {
	if m < MethodTGEN || m > MethodAuto {
		return fmt.Errorf("repro: unknown method %v", m)
	}
	return nil
}

// SearchOptions selects the algorithm for a query. The zero value selects
// TGEN. Every method runs with the paper's recommended knobs.
type SearchOptions struct {
	// Method picks the algorithm (default MethodTGEN).
	Method Method
	// Budget, for MethodAuto, is the explicit solve budget the planner
	// chooses against. Zero derives the budget from the request context's
	// deadline, falling back to a generous default when there is none.
	// Ignored by the concrete methods. An explicit Budget makes Auto's
	// choice deterministic regardless of scheduling (deadline-derived
	// budgets shrink while the request queues).
	Budget time.Duration
}

// ResultObject is a relevant object inside a result region.
type ResultObject struct {
	ID    int
	X, Y  float64
	Score float64 // σ(o.ψ, Q.ψ)
}

// Result is a region returned for an LCMSR query.
type Result struct {
	// Score is the region's total weight w.r.t. the query (Σ σv).
	Score float64
	// Length is the total road length of the region.
	Length float64
	// Nodes are the road-network node IDs forming the region (IDs into
	// the Database's graph).
	Nodes []int
	// Edges are (u, v, length) road segments of the region.
	Edges []EdgeSpec
	// Objects are the relevant objects the region contains.
	Objects []ResultObject
}

// Run answers an LCMSR query and returns the best region, or nil when no
// object in Q.Λ matches the keywords. ctx bounds the solve: a cancelled
// or expired context returns ctx.Err() within a bounded number of solver
// iterations. Run is the single-result convenience form of Do.
func (db *Database) Run(ctx context.Context, q Query, opts SearchOptions) (*Result, error) {
	resp := db.Do(ctx, Request{Query: q, Search: opts})
	return resp.Best(), resp.Err
}

// RunTopK answers the top-k LCMSR query (§6.2): up to k pairwise-disjoint
// regions in decreasing quality order. Each rank is one pooled
// single-region solve, and ctx is honored mid-rank: a cancel returns
// ctx.Err() within a bounded number of solver iterations. RunTopK is the
// K-form convenience wrapper over Do.
func (db *Database) RunTopK(ctx context.Context, q Query, k int, opts SearchOptions) ([]*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("repro: k must be positive, got %d", k)
	}
	resp := db.Do(ctx, Request{Query: q, Search: opts, K: k})
	return resp.Results, resp.Err
}

// solve runs method m on qi through the engine's one dispatch and
// materializes the answer: the best region when k <= 1 (none when nothing
// matched), else up to k disjoint regions, best first. It must run while
// qi is still the caller's (before its planner's next Instantiate).
func (db *Database) solve(ctx context.Context, qi *dataset.QueryInstance, delta float64, k int, m Method) ([]*Result, error) {
	opts := queryengine.Options{Method: m}
	if k > 1 {
		regions, err := queryengine.SolveTopK(ctx, qi, delta, k, opts)
		if err != nil {
			return nil, err
		}
		out := make([]*Result, len(regions))
		for i, r := range regions {
			out[i] = db.materialize(qi, r)
		}
		return out, nil
	}
	region, err := queryengine.Solve(ctx, qi, delta, opts)
	if err != nil || region == nil {
		return nil, err
	}
	return []*Result{db.materialize(qi, region)}, nil
}

// materialize converts a core region (local IDs) into a public Result
// (parent graph IDs, object details). Object scores are the σ values the
// instance recorded when it was built, so Result.Score and the objects'
// scores describe the same state even when a Reweight lands after the
// instantiate.
func (db *Database) materialize(qi *dataset.QueryInstance, region *core.Region) *Result {
	res := &Result{
		Score:  region.Score,
		Length: region.Length,
		Nodes:  make([]int, len(region.Nodes)),
		Edges:  make([]EdgeSpec, 0, len(region.Edges)),
	}
	for i, v := range region.Nodes {
		res.Nodes[i] = int(qi.Sub.ToParent[v])
	}
	for _, ei := range region.Edges {
		e := qi.Sub.Edge(roadnet.EdgeID(ei))
		res.Edges = append(res.Edges, EdgeSpec{
			U:      int(qi.Sub.ToParent[e.U]),
			V:      int(qi.Sub.ToParent[e.V]),
			Length: e.Length,
		})
	}
	// Object positions race with live mutators that grow the object
	// slice; take the dataset read lock.
	db.ds.RLock()
	defer db.ds.RUnlock()
	for _, v := range region.Nodes {
		for j, objID := range qi.NodeObjects[v] {
			o := db.ds.Objects[objID]
			res.Objects = append(res.Objects, ResultObject{
				ID:    int(objID),
				X:     o.Point.X,
				Y:     o.Point.Y,
				Score: qi.NodeScores[v][j],
			})
		}
	}
	return res
}
