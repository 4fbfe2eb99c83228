package repro

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// ErrOverloaded is returned (in Response.Err / Submit's error) when the
// server sheds a request under load: the request waited in the queue
// longer than ServeOptions.MaxQueueAge. Clients should back off and
// retry. It aliases the engine's sentinel so errors.Is works across
// layers.
var ErrOverloaded = queryengine.ErrOverloaded

// ServeOptions configures a streaming query server (Database.Serve).
type ServeOptions struct {
	// Workers is the serving-goroutine count; <= 0 means GOMAXPROCS. Each
	// worker owns one pooled planner, so memory grows with workers, not
	// with traffic.
	Workers int
	// Search selects the algorithm, exactly as for Run/RunBatch.
	// A Request may override it per request (Request.Search).
	Search SearchOptions
	// Queue bounds the number of requests waiting for a worker; a full
	// queue makes Do/Submit block (backpressure) until space frees or the
	// request's context fires. <= 0 means 2×Workers.
	Queue int
	// MaxQueueAge, when positive, sheds requests that waited in the queue
	// longer than this: they are answered with ErrOverloaded instead of
	// being solved, bounding the work wasted on requests whose clients
	// have likely given up. Zero disables shedding.
	MaxQueueAge time.Duration
	// LatencyWindow is how many recent per-worker latency samples the
	// percentile report covers; <= 0 means 4096.
	LatencyWindow int
	// DeadlineOrdered makes idle workers pick up the queued request whose
	// context deadline is earliest (EDF) instead of the oldest one (FIFO).
	// Admission, backpressure, and shedding are unchanged. Useful when
	// requests arrive with heterogeneous deadlines — e.g. a cluster
	// coordinator fanning out with per-node budgets.
	DeadlineOrdered bool
}

// ServeStats summarizes a server's traffic so far. Latency percentiles are
// measured from submission to answer, so queueing delay under load is
// included.
type ServeStats struct {
	// Served counts requests a worker processed (errored ones included);
	// Matched counts those that produced at least one region.
	Served, Matched int64
	// Errors counts requests answered with an error: rejected admissions
	// (context already done), validation and solver failures, and
	// mid-solve cancellations. Shed requests are counted separately.
	Errors int64
	// Shed counts requests rejected with ErrOverloaded by the queue-age
	// load-shedding policy.
	Shed int64
	// Panics counts requests whose solve panicked. Each failed only its
	// own client (queryengine.ErrQueryPanic); the worker recovered with a
	// fresh planner and kept serving.
	Panics int64
	// Window is the number of samples behind the percentiles.
	Window int
	// P50, P95, P99, Max are request latencies over the window.
	P50, P95, P99, Max time.Duration
}

// String formats the stats as one readable line.
func (st ServeStats) String() string {
	return fmt.Sprintf("served=%d matched=%d errors=%d shed=%d panics=%d p50=%v p95=%v p99=%v max=%v (window %d)",
		st.Served, st.Matched, st.Errors, st.Shed, st.Panics, st.P50, st.P95, st.P99, st.Max, st.Window)
}

// Server is a long-lived streaming query service over one Database. Any
// number of goroutines may Do/Submit concurrently; answers are
// bit-identical to Run/RunBatch on the same database. Admission is
// deadline-aware: a request whose context is already done is rejected
// without dispatch, one that out-waits MaxQueueAge is shed with
// ErrOverloaded, and one cancelled mid-solve returns ctx.Err() promptly
// while the worker stays healthy. Close it when done.
type Server struct {
	db          *Database
	inner       *queryengine.Server
	search      SearchOptions
	maxQueueAge time.Duration
	matched     atomic.Int64
}

// Serve starts a streaming query server. Unlike RunBatch, which answers a
// fixed workload and returns, the server accepts requests continuously
// until Close, with per-request latency tracking (Stats).
func (db *Database) Serve(opts ServeOptions) (*Server, error) {
	if err := checkMethod(opts.Search.Method); err != nil {
		return nil, err
	}
	inner := queryengine.NewServer(db.ds, queryengine.ServerOptions{
		Workers:         opts.Workers,
		Queue:           opts.Queue,
		MaxQueueAge:     opts.MaxQueueAge,
		LatencyWindow:   opts.LatencyWindow,
		DeadlineOrdered: opts.DeadlineOrdered,
	})
	return &Server{db: db, inner: inner, search: opts.Search, maxQueueAge: opts.MaxQueueAge}, nil
}

// Do answers one request, blocking until a worker is free (that is the
// server's backpressure) and the answer is computed. ctx bounds the whole
// request — queueing included: an already-done context is rejected
// without dispatch, a context firing while blocked on a full queue gives
// up with ctx.Err(), and a cancel mid-solve is observed by the solver
// checkpoints. A zero req.Search uses the server's configured defaults;
// any other value overrides them for this request.
func (s *Server) Do(ctx context.Context, req Request) Response {
	search := s.search
	if req.Search != (SearchOptions{}) {
		search = req.Search
	}
	return s.do(ctx, req, search)
}

// DoWithOptions answers req with search used exactly as given, bypassing
// Do's zero-Search convention. Reach for it when the desired options are
// themselves the zero value — plain TGEN defaults — on a server
// configured with a different method: that override is inexpressible
// through Request.Search, whose zero value means "server defaults". The
// HTTP front end resolves its method field through this path.
func (s *Server) DoWithOptions(ctx context.Context, req Request, search SearchOptions) Response {
	return s.do(ctx, req, search)
}

// do answers req with an explicitly resolved search.
func (s *Server) do(ctx context.Context, req Request, search SearchOptions) Response {
	dq, err := prepare(req, search)
	if err != nil {
		return Response{Err: err}
	}
	var results []*Result
	var pl *Plan
	started := time.Now()
	t := queryengine.Task{Ctx: ctx, Query: dq}
	t.Visit = func(qi *dataset.QueryInstance) error {
		// Answer on the worker, where the request's own queue wait (the
		// planner's load signal) is known and qi — which aliases the
		// worker's pooled planner — is still this request's.
		var err error
		results, pl, err = s.db.answer(ctx, qi, req, dq, search, started, t.Wait, s.maxQueueAge)
		return err
	}
	if err := s.inner.Do(&t); err != nil {
		return Response{Err: err}
	}
	if len(results) > 0 {
		s.matched.Add(1)
	}
	return Response{Results: results, Plan: pl}
}

// Submit answers one query through the server's configured options. It
// returns nil when no object inside Q.Λ matches the keywords, exactly
// like Run. Submit is the single-result convenience form of Do.
func (s *Server) Submit(ctx context.Context, q Query) (*Result, error) {
	resp := s.Do(ctx, Request{Query: q})
	return resp.Best(), resp.Err
}

// Close stops accepting requests, drains the queue, and waits for the
// workers to exit. It is idempotent and safe to call concurrently;
// Do/Submit after Close return queryengine.ErrServerClosed.
func (s *Server) Close() {
	s.inner.Close()
}

// Stats snapshots the server's counters and latency percentiles.
func (s *Server) Stats() ServeStats {
	st := s.inner.Stats()
	return ServeStats{
		Served:  st.Served,
		Matched: s.matched.Load(),
		Errors:  st.Errors,
		Shed:    st.Shed,
		Panics:  st.Panics,
		Window:  st.Window,
		P50:     st.P50,
		P95:     st.P95,
		P99:     st.P99,
		Max:     st.Max,
	}
}
