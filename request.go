package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
)

// Request is the unified query request: every way into the system —
// one-shot (Database.Do), batch (Database.RunBatch), streaming
// (Server.Do), and the HTTP front end — speaks this shape. Run, RunTopK
// and Submit remain as thin wrappers over it.
type Request struct {
	// Query is the LCMSR query ⟨ψ, ∆, Λ⟩.
	Query Query
	// Search selects the algorithm. For Database.Do the zero value
	// selects TGEN. For Server.Do the zero value means "use the server's
	// configured defaults"; any non-zero Search overrides them for this
	// request only. Because plain TGEN is the zero value, it cannot be
	// forced through this field on a server configured with another
	// method — use Server.DoWithOptions for that.
	Search SearchOptions
	// K, when > 1, asks for the top-K pairwise-disjoint regions in
	// decreasing quality order (§6.2); K <= 1 returns the single best
	// region.
	K int
	// Explain asks for an EXPLAIN annotation: the answered Response
	// carries a Plan describing the method choice, estimated vs. actual
	// cost, and what the search scanned vs. skipped. Results are
	// bit-identical with or without it; the plan costs one allocation and
	// some counters, paid only by requests that opt in.
	Explain bool
}

// Response is the unified query outcome. Results is empty when no object
// inside Q.Λ matches the keywords (and Err is nil — an empty answer is
// not an error), or when Err is set.
type Response struct {
	// Results holds up to max(1, K) regions, best first.
	Results []*Result
	// Err is the request error: validation, solver failure, ctx.Err()
	// after a cancellation or missed deadline, or ErrOverloaded when the
	// server shed the request.
	Err error
	// Plan is the EXPLAIN annotation, set only when the request asked for
	// it (Request.Explain) and was answered (nil on error). The caller
	// owns it; nothing in it aliases pooled serving state.
	Plan *Plan
}

// Best returns the best region of the response, or nil when the response
// is empty or errored.
func (r Response) Best() *Result {
	if len(r.Results) == 0 {
		return nil
	}
	return r.Results[0]
}

// Do answers one request against the database. ctx bounds the work: the
// solvers carry cancellation checkpoints, so a cancelled or expired
// context makes Do return ctx.Err() in Response.Err within a bounded
// number of solver iterations — top-K requests included, whose ranks are
// each one pooled single-region solve. Do is the one-shot form; use
// RunBatch for workloads and Serve for continuous traffic.
func (db *Database) Do(ctx context.Context, req Request) Response {
	dq, err := prepare(req, req.Search)
	if err != nil {
		return Response{Err: err}
	}
	started := time.Now()
	qi, err := db.ds.Instantiate(dq)
	if err != nil {
		return Response{Err: err}
	}
	results, pl, err := db.answer(ctx, qi, req, dq, req.Search, started, 0, 0)
	if err != nil {
		return Response{Err: err}
	}
	return Response{Results: results, Plan: pl}
}

// prepare validates a request under its resolved search options and
// converts the query for the dataset layer, before any instantiate work.
func prepare(req Request, search SearchOptions) (dataset.Query, error) {
	if err := checkMethod(search.Method); err != nil {
		return dataset.Query{}, err
	}
	dq, err := toDatasetQuery(req.Query)
	if err != nil {
		return dataset.Query{}, fmt.Errorf("repro: %w", err)
	}
	dq.Trace = req.Explain
	return dq, nil
}

// answer is the request pipeline after instantiation, shared by
// Database.Do and Server.Do: plan (resolving MethodAuto), solve one or K
// regions, materialize them, and finish the plan. It must run while qi is
// still the caller's. wait is the request's queue wait (0 when unqueued);
// with maxQueueAge > 0 their ratio is the planner's load pressure.
func (db *Database) answer(ctx context.Context, qi *dataset.QueryInstance, req Request, dq dataset.Query, search SearchOptions, started time.Time, wait, maxQueueAge time.Duration) ([]*Result, *Plan, error) {
	pressure := 0.0
	if maxQueueAge > 0 {
		pressure = float64(wait) / float64(maxQueueAge)
	}
	method, pl := db.planQuery(ctx, qi, dq.Lambda, search, pressure, req.Explain)
	results, err := db.solve(ctx, qi, dq.Delta, req.K, method)
	if err != nil {
		return nil, nil, err
	}
	// The trace aliases the planner's pooled state; finish copies it out
	// while qi is still this request's.
	pl.finish(qi, started, wait)
	return results, pl, nil
}
