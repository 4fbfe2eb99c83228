package repro

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// Mid-solve cancellation acceptance tests. Each test cancels a context
// while a solver is running on the bench instance (the same
// dataset/query seeds as BenchmarkQueryAPP/TGEN, where APP runs for
// hundreds of milliseconds) and asserts the contract end to end:
//
//   - the solve returns within 50ms of the cancel with context.Canceled;
//   - no goroutine leaks;
//   - the same worker scratch answers the next (uncancelled) query with
//     results bit-identical to a never-cancelled worker.

var (
	cancelOnce sync.Once
	cancelDS   *dataset.Dataset
	cancelQ    dataset.Query
)

// benchWorkload builds the bench dataset (NY scale 0.2, query seed 5)
// once for every cancellation test, stretching the generated query to the
// network's full extent with a generous budget: on this instance APP
// solves for hundreds of milliseconds and TGEN for over a hundred, so a
// cancel ~15ms in is unambiguously mid-solve.
func benchWorkload(t *testing.T) (*dataset.Dataset, dataset.Query) {
	t.Helper()
	cancelOnce.Do(func() {
		d, err := dataset.NYLike(dataset.Config{Seed: 3, Scale: 0.2})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(5))
		qs, err := d.GenQueries(rng, 1, 3, 25e6, 5000)
		if err != nil {
			panic(err)
		}
		q := qs[0]
		q.Lambda = d.Graph.BBox()
		q.Delta = 50_000
		cancelDS, cancelQ = d, q
	})
	return cancelDS, cancelQ
}

// regionCopy is a detached copy of a solver region (which aliases pooled
// scratch storage).
type regionCopy struct {
	score, length float64
	nodes, edges  []int32
}

func copyRegion(r *core.Region) *regionCopy {
	if r == nil {
		return nil
	}
	return &regionCopy{
		score:  r.Score,
		length: r.Length,
		nodes:  append([]int32(nil), r.Nodes...),
		edges:  append([]int32(nil), r.Edges...),
	}
}

func sameRegion(a, b *regionCopy) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.score != b.score || a.length != b.length ||
		len(a.nodes) != len(b.nodes) || len(a.edges) != len(b.edges) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			return false
		}
	}
	return true
}

// countGoroutines samples the goroutine count after a short settle, so
// runtime bookkeeping goroutines don't flake the leak check.
func countGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// testCancelMidSolve runs the full contract for one engine method on the
// bench workload: reference solve, mid-solve cancel, bounded return,
// scratch reuse.
func testCancelMidSolve(t *testing.T, method queryengine.Method, cancelAfter time.Duration) {
	d, q := benchWorkload(t)
	opts := queryengine.Options{Method: method}
	baseline := countGoroutines()

	// Reference answer from a fresh planner/scratch.
	ref := d.NewPlanner()
	qi, err := ref.Instantiate(q)
	if err != nil {
		t.Fatal(err)
	}
	refStart := time.Now()
	region, err := queryengine.Solve(context.Background(), qi, q.Delta, opts)
	if err != nil {
		t.Fatal(err)
	}
	refDur := time.Since(refStart)
	want := copyRegion(region)
	if want == nil {
		t.Fatal("bench query matched nothing; the test would be vacuous")
	}
	if refDur < 4*cancelAfter {
		t.Fatalf("solve took %v; cancelling after %v would not be mid-solve", refDur, cancelAfter)
	}

	// Cancel mid-solve on the worker planner.
	worker := d.NewPlanner()
	qi, err = worker.Instantiate(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := queryengine.Solve(ctx, qi, q.Delta, opts)
		done <- outcome{err: err, at: time.Now()}
	}()
	time.Sleep(cancelAfter)
	cancelledAt := time.Now()
	cancel()
	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled solve returned err = %v, want context.Canceled", out.err)
	}
	if lag := out.at.Sub(cancelledAt); lag > 50*time.Millisecond {
		t.Fatalf("solve returned %v after cancel, want <= 50ms", lag)
	}

	// The abandoned scratch must answer the next query bit-identically.
	qi, err = worker.Instantiate(q)
	if err != nil {
		t.Fatal(err)
	}
	region, err = queryengine.Solve(context.Background(), qi, q.Delta, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRegion(copyRegion(region), want) {
		t.Fatal("scratch reused after a cancelled solve produced a different region")
	}

	if after := countGoroutines(); after > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after", baseline, after)
	}
}

// TestCancelMidSolveAPP is the acceptance gate: cancel a context mid-APP-
// solve on the bench instance (APP runs for hundreds of milliseconds
// there) and observe return within 50ms with context.Canceled, no
// goroutine leaks, and bit-identical results from the reused scratch.
func TestCancelMidSolveAPP(t *testing.T) {
	testCancelMidSolve(t, queryengine.MethodAPP, 15*time.Millisecond)
}

func TestCancelMidSolveTGEN(t *testing.T) {
	testCancelMidSolve(t, queryengine.MethodTGEN, 10*time.Millisecond)
}

// testCancelMidTopK runs the same contract for a K=3 request of one
// method through a one-worker server, so the cancelled request and the
// request after it share the worker's scratch: every rank is a pooled
// single-region solve, so a cancel during the first rank must return as
// promptly as a single-region cancel does.
func testCancelMidTopK(t *testing.T, method Method, cancelAfter time.Duration) {
	d, dq := benchWorkload(t)
	db := &Database{ds: d}
	req := Request{
		Query:  Query{Keywords: dq.Keywords, Delta: dq.Delta, Region: fromGeo(dq.Lambda)},
		Search: SearchOptions{Method: method},
		K:      3,
	}
	baseline := countGoroutines()

	undisturbed, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refStart := time.Now()
	want := undisturbed.Do(context.Background(), req)
	refDur := time.Since(refStart)
	undisturbed.Close()
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if len(want.Results) < 2 {
		t.Fatalf("stress query answered %d regions; the test needs several ranks", len(want.Results))
	}
	if refDur < 4*cancelAfter {
		t.Fatalf("top-%d solve took %v; cancelling after %v would not be mid-rank", req.K, refDur, cancelAfter)
	}

	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		resp := srv.Do(ctx, req)
		done <- outcome{err: resp.Err, at: time.Now()}
	}()
	time.Sleep(cancelAfter)
	cancelledAt := time.Now()
	cancel()
	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled top-%d request returned err = %v, want context.Canceled", req.K, out.err)
	}
	if lag := out.at.Sub(cancelledAt); lag > 50*time.Millisecond {
		t.Fatalf("top-%d request returned %v after cancel, want <= 50ms", req.K, lag)
	}

	// The worker's abandoned scratch must answer the next request
	// bit-identically.
	got := srv.Do(context.Background(), req)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("scratch reused after a cancelled top-K request produced different regions")
	}
	srv.Close()
	if after := countGoroutines(); after > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after", baseline, after)
	}
}

// TestCancelMidTopK cancels K=3 APP and TGEN requests during their first
// rank on the stress query.
func TestCancelMidTopK(t *testing.T) {
	t.Run("APP", func(t *testing.T) { testCancelMidTopK(t, MethodAPP, 15*time.Millisecond) })
	t.Run("TGEN", func(t *testing.T) { testCancelMidTopK(t, MethodTGEN, 10*time.Millisecond) })
}

// TestCancelMidSolveGreedy uses a synthetic long-path instance: the bench
// query answers Greedy in microseconds, far too fast to cancel mid-solve,
// while greedy expansion over an n-node path costs Θ(n²) frontier scans.
func TestCancelMidSolveGreedy(t *testing.T) {
	const n = 4096
	edges := make([]core.Edge, n-1)
	weights := make([]float64, n)
	for i := range edges {
		edges[i] = core.Edge{U: int32(i), V: int32(i + 1), Length: 1}
	}
	for i := range weights {
		weights[i] = float64(i%7) + 1
	}
	in, err := core.NewInstance(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	delta := float64(n) // the whole path fits: greedy runs to exhaustion
	baseline := countGoroutines()

	fresh := core.NewSolveScratch()
	refStart := time.Now()
	region, err := core.SolveGreedy(context.Background(), fresh, in, delta, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refDur := time.Since(refStart)
	want := copyRegion(region)
	cancelAfter := refDur / 8
	if cancelAfter < time.Millisecond {
		cancelAfter = time.Millisecond
	}
	if refDur < 4*cancelAfter {
		t.Skipf("greedy reference solve too fast to cancel mid-solve (%v)", refDur)
	}

	worker := core.NewSolveScratch()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := core.SolveGreedy(ctx, worker, in, delta, core.GreedyOptions{})
		done <- outcome{err: err, at: time.Now()}
	}()
	time.Sleep(cancelAfter)
	cancelledAt := time.Now()
	cancel()
	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled greedy returned err = %v, want context.Canceled", out.err)
	}
	if lag := out.at.Sub(cancelledAt); lag > 50*time.Millisecond {
		t.Fatalf("greedy returned %v after cancel, want <= 50ms", lag)
	}
	region, err = core.SolveGreedy(context.Background(), worker, in, delta, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRegion(copyRegion(region), want) {
		t.Fatal("scratch reused after a cancelled greedy produced a different region")
	}
	if after := countGoroutines(); after > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after", baseline, after)
	}
}

// TestServerCancelMidSolve drives the same contract through the streaming
// server: a deadline that fires mid-solve surfaces context.DeadlineExceeded
// from Submit, the worker survives, and the very next submission on the
// same server (same worker, same scratch) answers bit-identically to an
// undisturbed server.
func TestServerCancelMidSolve(t *testing.T) {
	d, q := benchWorkload(t)
	opts := queryengine.Options{Method: queryengine.MethodAPP}

	undisturbed := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1, Options: opts})
	want, err := undisturbed.Submit(context.Background(), q)
	undisturbed.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !want.Matched {
		t.Fatal("bench query matched nothing; the test would be vacuous")
	}

	srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1, Options: opts})
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = srv.Submit(ctx, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bounded submit returned err = %v, want context.DeadlineExceeded", err)
	}
	if lag := time.Since(start); lag > 15*time.Millisecond+50*time.Millisecond {
		t.Fatalf("submit returned %v after submission, want deadline+50ms", lag)
	}
	got, err := srv.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || got.Length != want.Length || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("post-cancel answer differs: got %v/%v/%d nodes, want %v/%v/%d",
			got.Score, got.Length, len(got.Nodes), want.Score, want.Length, len(want.Nodes))
	}
	for i := range got.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatal("post-cancel answer differs in node set")
		}
	}
	st := srv.Stats()
	if st.Errors != 1 {
		t.Fatalf("Stats().Errors = %d, want 1 (the cancelled request)", st.Errors)
	}
}
