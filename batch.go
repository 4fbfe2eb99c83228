package repro

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// BatchStats summarizes a RunBatch execution.
type BatchStats struct {
	// Elapsed is the wall-clock time of the whole batch.
	Elapsed time.Duration
	// Workers is the resolved worker-pool size.
	Workers int
	// Matched counts queries that produced a region.
	Matched int
}

// QueriesPerSecond returns the batch throughput.
func (s BatchStats) QueriesPerSecond(n int) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(n) / s.Elapsed.Seconds()
}

// RunBatch answers a whole query workload, fanning the queries out across
// a pool of workers with per-worker pooled extraction and solver state
// (internal/queryengine). workers <= 0 selects GOMAXPROCS. The returned
// slice has one entry per query — nil when no object matched — and is
// identical to calling Run on each query in order, for any worker count.
// ctx bounds the whole batch: once it fires, in-flight solves return
// ctx.Err() through their checkpoints, no further queries start, and
// RunBatch returns ctx.Err().
func (db *Database) RunBatch(ctx context.Context, qs []Query, opts SearchOptions, workers int) ([]*Result, BatchStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) && len(qs) > 0 {
		workers = len(qs) // mirror the engine's clamp so stats are honest
	}
	stats := BatchStats{Workers: workers}
	if err := checkMethod(opts.Method); err != nil {
		return nil, stats, err
	}
	if opts.Method == MethodAuto {
		// Auto is resolved per request by Do and Serve; the batch path has
		// no per-request budget or load signal to resolve against.
		return nil, stats, fmt.Errorf("repro: MethodAuto is resolved by Do/Serve, not the batch path; pick a concrete method")
	}
	dqs := make([]dataset.Query, len(qs))
	for i, q := range qs {
		dq, err := toDatasetQuery(q)
		if err != nil {
			return nil, stats, fmt.Errorf("repro: query %d: %w", i, err)
		}
		dqs[i] = dq
	}
	results := make([]*Result, len(qs))
	start := time.Now()
	err := queryengine.RunFunc(ctx, db.ds, dqs, workers, func(i int, qi *dataset.QueryInstance) error {
		// Answer before the worker's planner is reused for the next query:
		// the QueryInstance aliases pooled buffers.
		res, err := db.solve(ctx, qi, dqs[i].Delta, 1, opts.Method)
		if len(res) > 0 {
			results[i] = res[0]
		}
		return err
	})
	stats.Elapsed = time.Since(start)
	if err != nil {
		return nil, stats, err
	}
	for _, r := range results {
		if r != nil {
			stats.Matched++
		}
	}
	return results, stats, nil
}
