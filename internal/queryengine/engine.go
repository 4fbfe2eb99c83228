// Package queryengine executes LCMSR queries across a pool of workers, in
// two modes sharing one execution core:
//
//   - Batch (Run/RunFunc): a fixed query slice fanned out over workers,
//     used by experiments and RunBatch.
//   - Streaming (Server): a long-lived service fed through a bounded
//     request channel, with graceful shutdown and per-request latency
//     percentiles, used by Database.Serve and cmd/lcmsr -serve.
//
// Each worker owns one dataset.Planner — a pooled extractor, instance,
// query/search scratch, and buffers — so steady-state query execution
// reuses memory instead of allocating per query, and throughput scales
// with worker count while results stay bit-identical to the serial path.
//
// # Concurrency model and pooling ownership
//
// The Dataset (graph, vocabulary, grid index) is immutable at query time
// and shared read-only by all workers; the grid's MemStore is safe for
// concurrent reads, BTreeStore serializes tree access behind one mutex,
// and ShardedStore stripes cells across independently locked shards so
// workers' cold posting fetches only contend when they hit the same shard.
// All mutable per-query state lives in the worker-local Planner,
// which only its owning goroutine touches; a QueryInstance handed to a
// callback (RunFunc's fn, Task.Visit) aliases that planner's buffers and
// is valid only for the duration of the call. In batch mode work is
// distributed by an atomic cursor over the query slice and results are
// written to disjoint slots, so output order (and content — extraction,
// scoring, and the solvers are deterministic) is independent of
// scheduling; the streaming server inherits the same guarantee because
// every request is answered from the same immutable state.
package queryengine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// Method selects the query-answering algorithm.
type Method int

const (
	// MethodTGEN is the tuple-generation heuristic (§5) — the best
	// accuracy and efficiency in the paper's study, and the default.
	MethodTGEN Method = iota
	// MethodAPP is the (5+ε)-approximation algorithm (§4).
	MethodAPP
	// MethodGreedy is the fast, lower-accuracy greedy expansion (§6.1).
	MethodGreedy
	// MethodAuto defers the choice to the cost planner (internal/plan):
	// per request, it estimates each solver's cost from the grid's term
	// directories and the instance size, picks the most expensive method
	// affordable within the request's budget, and degrades one rung under
	// queue pressure instead of shedding. It is resolved to a concrete
	// method before solving; Solve and SolveTopK reject it.
	MethodAuto
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodTGEN:
		return "TGEN"
	case MethodAPP:
		return "APP"
	case MethodGreedy:
		return "Greedy"
	case MethodAuto:
		return "Auto"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options tunes a workload run.
type Options struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Method picks the algorithm (default MethodTGEN). Every method runs
	// with the paper's defaults; TGEN's α is auto-sized per query region
	// (see autoAlpha).
	Method Method
}

// Result is the outcome of one query of a workload, expressed in parent
// (road-network) node IDs so it is comparable across runs.
type Result struct {
	// Matched reports whether any region matched the query.
	Matched bool
	// Score is the region's total weight Σ σv.
	Score float64
	// Length is the region's total road length.
	Length float64
	// Nodes are the parent node IDs of the region, ascending.
	Nodes []roadnet.NodeID
}

// RunFunc executes fn for every query, fanning out across workers. Each
// worker owns a pooled Planner; fn receives the query index and the
// materialized working graph, whose buffers are valid only for the
// duration of the call. The first error cancels the remaining work, as
// does ctx: once ctx is done, workers stop picking up queries and the
// call returns ctx.Err() (callbacks already running observe the same ctx
// through Solve's checkpoints).
func RunFunc(ctx context.Context, d *dataset.Dataset, queries []dataset.Query, workers int, fn func(i int, qi *dataset.QueryInstance) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if len(queries) == 0 {
		return ctx.Err()
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstE  error
		wg      sync.WaitGroup
	)
	report := func(err error) {
		errOnce.Do(func() { firstE = err })
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			p := d.NewPlanner()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					report(err)
					return
				}
				qi, err := p.Instantiate(queries[i])
				if err != nil {
					report(fmt.Errorf("queryengine: query %d: %w", i, err))
					return
				}
				if err := fn(i, qi); err != nil {
					report(fmt.Errorf("queryengine: query %d: %w", i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstE
}

// Run answers every query of the workload with the configured method and
// returns one Result per query. The results are identical for any worker
// count, including the serial Workers == 1 path.
func Run(ctx context.Context, d *dataset.Dataset, queries []dataset.Query, opts Options) ([]Result, error) {
	results := make([]Result, len(queries))
	err := RunFunc(ctx, d, queries, opts.Workers, func(i int, qi *dataset.QueryInstance) error {
		region, err := Solve(ctx, qi, queries[i].Delta, opts)
		if err != nil {
			return err
		}
		if region == nil {
			return nil
		}
		nodes := make([]roadnet.NodeID, len(region.Nodes))
		for j, v := range region.Nodes {
			nodes[j] = qi.Sub.ToParent[v]
		}
		results[i] = Result{Matched: true, Score: region.Score, Length: region.Length, Nodes: nodes}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Solve runs the configured algorithm on one materialized query through
// its planner's pooled SolveScratch: zero steady-state allocations, and
// mid-solve cancellation — a cancelled ctx makes Solve return ctx.Err()
// within a bounded number of solver iterations. The returned region
// aliases the scratch and is valid only until the next solve on the same
// planner. Callers composing their own RunFunc loops (package repro's
// RunBatch) share this dispatch so method selection lives in one place.
func Solve(ctx context.Context, qi *dataset.QueryInstance, delta float64, opts Options) (*core.Region, error) {
	region, _, err := dispatch(ctx, qi, delta, 1, opts)
	return region, err
}

// SolveTopK is Solve's top-K form (§6.2): up to k pairwise-disjoint
// regions, best first, each rank one pooled single-region solve on the
// planner's scratch, so ctx is honored mid-rank. The returned regions are
// copies the caller owns.
func SolveTopK(ctx context.Context, qi *dataset.QueryInstance, delta float64, k int, opts Options) ([]*core.Region, error) {
	_, regions, err := dispatch(ctx, qi, delta, k, opts)
	return regions, err
}

// dispatch is the one place a Method becomes a solver call: the pooled
// single-region solver when k <= 1 (one), its top-K form otherwise (topK).
func dispatch(ctx context.Context, qi *dataset.QueryInstance, delta float64, k int, opts Options) (one *core.Region, topK []*core.Region, err error) {
	s, in := qi.Scratch, qi.In
	switch opts.Method {
	case MethodAPP:
		if k > 1 {
			topK, err = core.TopKAPP(ctx, s, in, delta, k, core.APPOptions{})
		} else {
			one, err = core.SolveAPP(ctx, s, in, delta, core.APPOptions{})
		}
	case MethodGreedy:
		if k > 1 {
			topK, err = core.TopKGreedy(ctx, s, in, delta, k, core.GreedyOptions{})
		} else {
			one, err = core.SolveGreedy(ctx, s, in, delta, core.GreedyOptions{})
		}
	case MethodTGEN:
		tgen := core.TGENOptions{Alpha: autoAlpha(in.NumNodes)}
		if k > 1 {
			topK, err = core.TopKTGEN(ctx, s, in, delta, k, tgen)
		} else {
			one, err = core.SolveTGEN(ctx, s, in, delta, tgen)
		}
	default:
		err = fmt.Errorf("queryengine: no solver for method %v (resolve MethodAuto first)", opts.Method)
	}
	return one, topK, err
}

// autoAlpha sizes TGEN's α so σ̂max ≈ 9 regardless of how many nodes fall
// inside Λ; the paper's α = 400 on |VQ| in the thousands corresponds to
// the same σ̂max regime.
func autoAlpha(numNodes int) float64 {
	a := float64(numNodes) / 9
	if a < 1 {
		a = 1
	}
	return a
}
