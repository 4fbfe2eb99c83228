package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/container"
)

// checkRegion asserts r is a well-formed connected feasible region of in.
func checkRegion(t *testing.T, in *Instance, r *Region, delta float64) {
	t.Helper()
	if r == nil {
		t.Fatal("nil region")
	}
	if len(r.Nodes) == 0 {
		t.Fatal("empty region")
	}
	seen := map[int32]bool{}
	var score float64
	for i, v := range r.Nodes {
		if i > 0 && r.Nodes[i-1] >= v {
			t.Fatal("region nodes not sorted ascending / duplicate")
		}
		if v < 0 || int(v) >= in.NumNodes {
			t.Fatalf("node %d out of range", v)
		}
		seen[v] = true
		score += in.Weights[v]
	}
	uf := container.NewUnionFind(in.NumNodes)
	var length float64
	for _, ei := range r.Edges {
		e := in.Edges[ei]
		if !seen[e.U] || !seen[e.V] {
			t.Fatal("region edge leaves the node set")
		}
		if !uf.Union(int(e.U), int(e.V)) {
			t.Fatal("region contains a cycle")
		}
		length += e.Length
	}
	if len(r.Edges) != len(r.Nodes)-1 {
		t.Fatalf("|E|=%d |V|=%d: not a tree", len(r.Edges), len(r.Nodes))
	}
	if math.Abs(length-r.Length) > 1e-9 {
		t.Fatalf("Length %v, recomputed %v", r.Length, length)
	}
	if math.Abs(score-r.Score) > 1e-9 {
		t.Fatalf("Score %v, recomputed %v", r.Score, score)
	}
	if r.Length > delta+1e-9 {
		t.Fatalf("Length %v exceeds budget %v", r.Length, delta)
	}
}

func mustInstance(t *testing.T, n int, edges []Edge, weights []float64) *Instance {
	t.Helper()
	in, err := NewInstance(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// pathInstance builds a path 0-1-...-n-1 with the given edge lengths.
func pathInstance(t *testing.T, weights []float64, lengths []float64) *Instance {
	t.Helper()
	var edges []Edge
	for i, l := range lengths {
		edges = append(edges, Edge{U: int32(i), V: int32(i + 1), Length: l})
	}
	return mustInstance(t, len(weights), edges, weights)
}

// randomInstance makes a connected random graph with nonneg weights.
// t may be nil when called from quick.Check property functions.
func randomInstance(t *testing.T, rng *rand.Rand, n int) *Instance {
	if t != nil {
		t.Helper()
	}
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: int32(rng.Intn(i)), V: int32(i), Length: 0.5 + 2*rng.Float64()})
	}
	extra := rng.Intn(n)
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: int32(u), V: int32(v), Length: 0.5 + 2*rng.Float64()})
		}
	}
	weights := make([]float64, n)
	for i := range weights {
		if rng.Float64() < 0.7 {
			weights[i] = rng.Float64()
		}
	}
	weights[rng.Intn(n)] = 0.5 + rng.Float64()/2 // ensure σmax > 0
	in, err := NewInstance(n, edges, weights)
	if err != nil {
		panic(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(2, nil, []float64{1}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := NewInstance(1, nil, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewInstance(1, nil, []float64{math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := NewInstance(2, []Edge{{U: 0, V: 0, Length: 1}}, []float64{1, 1}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := NewInstance(2, []Edge{{U: 0, V: 5, Length: 1}}, []float64{1, 1}); err == nil {
		t.Error("bad endpoint accepted")
	}
	if _, err := NewInstance(2, []Edge{{U: 0, V: 1, Length: -1}}, []float64{1, 1}); err == nil {
		t.Error("negative length accepted")
	}
}

func TestInstanceResetReuse(t *testing.T) {
	// A pooled instance must serve successive working graphs of different
	// shapes with a correct CSR adjacency each time.
	var in Instance
	check := func(numNodes int, edges []Edge) {
		t.Helper()
		weights := make([]float64, numNodes)
		for i := range weights {
			weights[i] = float64(i)
		}
		if err := in.Reset(numNodes, edges, weights); err != nil {
			t.Fatal(err)
		}
		deg := make([]int, numNodes)
		for _, e := range edges {
			deg[e.U]++
			deg[e.V]++
		}
		seen := make(map[int32]int)
		for v := 0; v < numNodes; v++ {
			nb := in.Neighbors(NodeID(v))
			if len(nb) != deg[v] {
				t.Fatalf("node %d degree %d, want %d", v, len(nb), deg[v])
			}
			for _, he := range nb {
				e := edges[he.Edge]
				if e.U != NodeID(v) && e.V != NodeID(v) {
					t.Fatalf("edge %d in adjacency of non-endpoint %d", he.Edge, v)
				}
				if he.To != e.U && he.To != e.V {
					t.Fatalf("halfedge target %d not an endpoint of edge %d", he.To, he.Edge)
				}
				seen[he.Edge]++
			}
		}
		for id, c := range seen {
			if c != 2 {
				t.Fatalf("edge %d appears %d times, want 2", id, c)
			}
		}
		if len(seen) != len(edges) {
			t.Fatalf("adjacency covers %d edges, want %d", len(seen), len(edges))
		}
	}
	check(4, []Edge{{U: 0, V: 1, Length: 1}, {U: 1, V: 2, Length: 2}, {U: 2, V: 3, Length: 3}})
	check(2, []Edge{{U: 0, V: 1, Length: 5}})                          // shrink
	check(6, []Edge{{U: 0, V: 5, Length: 1}, {U: 4, V: 1, Length: 2}}) // regrow
	if err := in.Reset(2, []Edge{{U: 0, V: 0, Length: 1}}, []float64{1, 1}); err == nil {
		t.Error("Reset accepted a self loop")
	}
}

// Example 2 of the paper: α = 0.15, σmax = 0.4, |VQ| = 6 gives θ = 0.01.
func TestScaleExample2(t *testing.T) {
	in := mustInstance(t, 6, nil, []float64{0.2, 0.3, 0.4, 0.2, 0.2, 0.4})
	sc, err := Scale(in, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sc.Theta-0.01) > 1e-12 {
		t.Errorf("θ = %v, want 0.01", sc.Theta)
	}
	// "the weight of each node is scaled to 100 times its original value"
	want := []int64{20, 30, 40, 20, 20, 40}
	for v, w := range want {
		// Floating division can land at 39.999...; the floor must still
		// be within one of the ideal value and satisfy Theorem 2's bound.
		if sc.Scaled[v] != w && sc.Scaled[v] != w-1 {
			t.Errorf("σ̂[%d] = %d, want %d (±1 for float floor)", v, sc.Scaled[v], w)
		}
	}
}

// Theorem 2's scaling inequality: σv − θ < θσ̂v ≤ σv for every node.
func TestScaleInvariant(t *testing.T) {
	f := func(seed int64, alphaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		in := randomInstance(nil, rng, n)
		alpha := 0.01 + float64(alphaRaw)/64.0 // 0.01 .. ~4
		sc, err := Scale(in, alpha)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			lhs := in.Weights[v] - sc.Theta
			mid := sc.Theta * float64(sc.Scaled[v])
			if !(lhs < mid+1e-12 && mid <= in.Weights[v]+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestScaleRejectsBadInput(t *testing.T) {
	in := mustInstance(t, 2, nil, []float64{1, 0})
	for _, alpha := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Scale(in, alpha); err == nil {
			t.Errorf("α=%v accepted", alpha)
		}
	}
	empty := mustInstance(t, 0, nil, nil)
	if _, err := Scale(empty, 0.5); err == nil {
		t.Error("empty instance accepted")
	}
	zero := mustInstance(t, 3, nil, []float64{0, 0, 0})
	if _, err := Scale(zero, 0.5); err == nil {
		t.Error("all-zero weights accepted (no relevant node)")
	}
}

// The DP over a tree must match brute force over all subtrees.
func TestFindOptTreeMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		// Random tree.
		var edges []Edge
		for i := 1; i < n; i++ {
			edges = append(edges, Edge{U: int32(rng.Intn(i)), V: int32(i), Length: float64(1 + rng.Intn(5))})
		}
		weights := make([]float64, n)
		scaled := make([]int64, n)
		for i := range weights {
			scaled[i] = int64(rng.Intn(5))
			weights[i] = float64(scaled[i])
		}
		in := mustInstance(t, n, edges, weights)
		sc := &Scaling{Alpha: 1, Theta: 1, Scaled: scaled}
		delta := float64(1 + rng.Intn(12))

		treeNodes := make([]int32, n)
		treeEdges := make([]int32, len(edges))
		for i := range treeNodes {
			treeNodes[i] = int32(i)
		}
		for i := range treeEdges {
			treeEdges[i] = int32(i)
		}
		got := findOptTree(in, sc, treeNodes, treeEdges, delta)
		want, err := Exact(in, delta)
		if err != nil {
			t.Fatal(err)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		if got == nil {
			continue
		}
		checkRegion(t, in, got, delta)
		if math.Abs(got.Score-want.Score) > 1e-9 {
			t.Fatalf("trial %d: DP score %v, exact %v (Δ=%v)", trial, got.Score, want.Score, delta)
		}
	}
}

// findOptTree also honours the tie-break: equal weight, shorter region.
func TestFindOptTreeTieBreak(t *testing.T) {
	// Path a(1) -2- b(0) -5- c(1): with Δ=10 both {a} and {c} weigh 1 but
	// {a,b,c} weighs 2; with Δ=1 only singletons fit and weight-1 nodes tie.
	in := pathInstance(t, []float64{1, 0, 1}, []float64{2, 5})
	sc := &Scaling{Alpha: 1, Theta: 1, Scaled: []int64{1, 0, 1}}
	r := findOptTree(in, sc, []int32{0, 1, 2}, []int32{0, 1}, 1)
	if r == nil || r.Scaled != 1 || r.Length != 0 || len(r.Nodes) != 1 {
		t.Fatalf("tie-break region = %v", r)
	}
}

func TestAPPBoundsOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	alpha, beta := 0.3, 0.1
	lower := (1 - alpha) / (5 + 5*beta) // Theorem 4
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		in := randomInstance(t, rng, n)
		delta := 1 + rng.Float64()*8
		opt, err := Exact(in, delta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := APP(in, delta, APPOptions{Alpha: alpha, Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("trial %d: APP returned nil on instance with σmax > 0", trial)
		}
		checkRegion(t, in, got, delta)
		if got.Score > opt.Score+1e-9 {
			t.Fatalf("trial %d: APP %v beats exact %v", trial, got.Score, opt.Score)
		}
		if got.Score < lower*opt.Score-1e-9 {
			t.Fatalf("trial %d: APP %v below (1−α)/(5+5β)·OPT = %v·%v",
				trial, got.Score, lower, opt.Score)
		}
	}
}

func TestAPPNoRelevantNode(t *testing.T) {
	in := mustInstance(t, 3, []Edge{{U: 0, V: 1, Length: 1}}, []float64{0, 0, 0})
	r, err := APP(in, 5, APPOptions{})
	if err != nil || r != nil {
		t.Errorf("no-relevant-node: region=%v err=%v, want nil/nil", r, err)
	}
	r, err = TGEN(in, 5, TGENOptions{})
	if err != nil || r != nil {
		t.Errorf("TGEN no-relevant-node: region=%v err=%v", r, err)
	}
	r, err = Greedy(in, 5, GreedyOptions{})
	if err != nil || r != nil {
		t.Errorf("Greedy no-relevant-node: region=%v err=%v", r, err)
	}
}

func TestAPPRejectsBadDelta(t *testing.T) {
	in := mustInstance(t, 1, nil, []float64{1})
	if _, err := APP(in, -1, APPOptions{}); err == nil {
		t.Error("negative ∆ accepted by APP")
	}
	if _, err := TGEN(in, math.NaN(), TGENOptions{}); err == nil {
		t.Error("NaN ∆ accepted by TGEN")
	}
	if _, err := Greedy(in, -2, GreedyOptions{}); err == nil {
		t.Error("negative ∆ accepted by Greedy")
	}
}

func TestAPPTinyDelta(t *testing.T) {
	// Budget smaller than every edge: only singletons are feasible, and
	// the best single node must be returned.
	in := pathInstance(t, []float64{0.3, 0.9, 0.1}, []float64{5, 5})
	r, err := APP(in, 1, APPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, in, r, 1)
	if len(r.Nodes) != 1 || r.Nodes[0] != 1 {
		t.Errorf("tiny-∆ region = %v, want single node 1", r)
	}
}

func TestAPPTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomInstance(t, rng, 12)
	var trace []TraceStep
	if _, err := APP(in, 3, APPOptions{Trace: &trace}); err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no trace rows")
	}
	for i, s := range trace {
		if s.X < s.L || s.X > s.U {
			t.Errorf("row %d: X=%v outside [%v,%v]", i, s.X, s.L, s.U)
		}
		if i > 0 && trace[i].U-trace[i].L > trace[i-1].U-trace[i-1].L {
			t.Errorf("row %d: interval grew", i)
		}
	}
}

func TestTGENMatchesExactWithFineScaling(t *testing.T) {
	// With integer weights and θ=1 scaling, TGEN's enumeration is close to
	// exhaustive on small trees. Dominance pruning can still discard a
	// tuple the optimum needs (§5: "it is possible that the optimal region
	// is missed"), so assert TGEN never beats Exact and stays within 85%
	// of it in aggregate.
	var gotSum, wantSum float64
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		var edges []Edge
		for i := 1; i < n; i++ {
			edges = append(edges, Edge{U: int32(rng.Intn(i)), V: int32(i), Length: float64(1 + rng.Intn(4))})
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(rng.Intn(4))
		}
		if maxF(weights) == 0 {
			weights[0] = 1
		}
		in := mustInstance(t, n, edges, weights)
		delta := float64(1 + rng.Intn(10))
		want, err := Exact(in, delta)
		if err != nil {
			t.Fatal(err)
		}
		// α chosen so θ = α·σmax/n ≤ 1/(anything): make scaling lossless
		// by picking θ dividing 1: α = n/σmax gives θ = 1.
		alpha := float64(n) / maxF(weights)
		got, err := TGEN(in, delta, TGENOptions{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("trial %d: TGEN nil", trial)
		}
		checkRegion(t, in, got, delta)
		if got.Score > want.Score+1e-9 {
			t.Fatalf("trial %d: TGEN %v beats exact %v", trial, got.Score, want.Score)
		}
		gotSum += got.Score
		wantSum += want.Score
	}
	if gotSum < 0.85*wantSum {
		t.Errorf("TGEN aggregate %.3f below 85%% of exact aggregate %.3f", gotSum, wantSum)
	}
}

func maxF(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestTGENFeasibleOnGeneralGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(t, rng, 4+rng.Intn(12))
		delta := 1 + rng.Float64()*8
		got, err := TGEN(in, delta, TGENOptions{Alpha: 50})
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("trial %d: nil region", trial)
		}
		checkRegion(t, in, got, delta)
		opt, err := Exact(in, delta)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score > opt.Score+1e-9 {
			t.Fatalf("trial %d: TGEN %v beats exact %v", trial, got.Score, opt.Score)
		}
	}
}

func TestGreedyBudgetAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(t, rng, 5+rng.Intn(20))
		delta := rng.Float64() * 10
		r, err := Greedy(in, delta, GreedyOptions{Mu: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		checkRegion(t, in, r, delta)
	}
}

func TestGreedyMuExtremes(t *testing.T) {
	// Star: center weight 0.1; spokes: heavy-far (weight 1, length 10) and
	// light-near (weight 0.2, length 1). µ=0 (weight only) must take the
	// heavy spoke first; µ=1 (length only) must take the near spoke first.
	in := mustInstance(t, 3,
		[]Edge{{U: 0, V: 1, Length: 10}, {U: 0, V: 2, Length: 1}},
		[]float64{5, 1, 0.2}) // node 0 is the seed (σmax)
	rW, err := Greedy(in, 10, GreedyOptions{Mu: 0, MuSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rW.Contains(1) {
		t.Errorf("µ=0 region %v skipped the heavy far node", rW)
	}
	rL, err := Greedy(in, 10, GreedyOptions{Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rL.Contains(2) || rL.Contains(1) {
		t.Errorf("µ=1 region %v should take only the near node (budget excludes both)", rL)
	}
}

func TestGreedyRejectsBadMu(t *testing.T) {
	in := mustInstance(t, 1, nil, []float64{1})
	for _, mu := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := Greedy(in, 1, GreedyOptions{Mu: mu, MuSet: true}); err == nil {
			t.Errorf("µ=%v accepted", mu)
		}
	}
}

func TestExactRefusesLargeInstances(t *testing.T) {
	weights := make([]float64, 30)
	in := mustInstance(t, 30, nil, weights)
	if _, err := Exact(in, 1); err == nil {
		t.Error("Exact accepted a 30-node instance")
	}
}

func TestTopKDisjointAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	in := randomInstance(t, rng, 18)
	delta := 4.0
	s := NewSolveScratch()
	for name, run := range map[string]func() ([]*Region, error){
		"APP": func() ([]*Region, error) { return TopKAPP(context.Background(), s, in, delta, 3, APPOptions{}) },
		"TGEN": func() ([]*Region, error) {
			return TopKTGEN(context.Background(), s, in, delta, 3, TGENOptions{Alpha: 30})
		},
		"Greedy": func() ([]*Region, error) { return TopKGreedy(context.Background(), s, in, delta, 3, GreedyOptions{}) },
	} {
		regions, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(regions) == 0 || len(regions) > 3 {
			t.Fatalf("%s: %d regions", name, len(regions))
		}
		for i, r := range regions {
			checkRegion(t, in, r, delta)
			for j := i + 1; j < len(regions); j++ {
				if r.sharesNode(regions[j]) {
					t.Errorf("%s: regions %d and %d overlap", name, i, j)
				}
			}
		}
		for i := 1; i < len(regions); i++ {
			if regions[i].Score > regions[i-1].Score+0.5 {
				t.Errorf("%s: region %d (%.3f) much better than region %d (%.3f): ordering broken",
					name, i, regions[i].Score, i-1, regions[i-1].Score)
			}
		}
	}
}

func TestTopKZero(t *testing.T) {
	in := mustInstance(t, 1, nil, []float64{1})
	if rs, err := TopKAPP(context.Background(), NewSolveScratch(), in, 1, 0, APPOptions{}); err != nil || rs != nil {
		t.Error("k=0 should be empty")
	}
}

// The algorithms' relative quality on a moderately sized instance must
// reflect the paper's finding: TGEN ≥ APP ≥ Greedy is the usual order;
// we assert the weaker stable property APP ≥ 60% of TGEN and both ≥ the
// single best node, averaged over instances.
func TestRelativeQualityOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	var appSum, tgenSum, greedySum float64
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		in := randomInstance(t, rng, 40)
		delta := 6.0
		app, err := APP(in, delta, APPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// α sized so that σ̂max = ⌊n/α⌋ ≈ 8, mirroring the paper's α=400
		// on thousands of nodes (too coarse a scale zeroes every weight).
		tg, err := TGEN(in, delta, TGENOptions{Alpha: 5})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := Greedy(in, delta, GreedyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		appSum += app.Score
		tgenSum += tg.Score
		greedySum += gr.Score
	}
	if appSum < 0.6*tgenSum {
		t.Errorf("APP total %.3f below 60%% of TGEN total %.3f", appSum, tgenSum)
	}
	if tgenSum < greedySum*0.95 {
		t.Errorf("TGEN total %.3f clearly below Greedy total %.3f", tgenSum, greedySum)
	}
}

func TestSolverSPTVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomInstance(t, rng, 25)
	r, err := APP(in, 5, APPOptions{Solver: SolverSPT})
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, in, r, 5)
}

func TestRegionHelpers(t *testing.T) {
	a := &Region{Scaled: 5, Length: 2, Nodes: []int32{1, 3, 5}}
	b := &Region{Scaled: 5, Length: 3, Nodes: []int32{2, 4}}
	if !a.betterThan(b) {
		t.Error("equal weight shorter region must win")
	}
	if a.sharesNode(b) {
		t.Error("disjoint sets reported overlapping")
	}
	c := &Region{Nodes: []int32{5, 9}}
	if !a.sharesNode(c) {
		t.Error("overlap missed")
	}
	if !a.Contains(3) || a.Contains(2) {
		t.Error("Contains wrong")
	}
	if (*Region)(nil).String() != "Region(nil)" {
		t.Error("nil String")
	}
	var nilR *Region
	if nilR.betterThan(nil) {
		t.Error("nil not better than nil")
	}
	if !a.betterScore(b) { // scores both 0; falls to length
		t.Error("betterScore tie-break failed")
	}
}

func TestTGENEdgeOrders(t *testing.T) {
	// §5: the edge processing order changes accuracy only slightly.
	rng := rand.New(rand.NewSource(404))
	var bfsSum, ascSum float64
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(t, rng, 30)
		delta := 5.0
		alpha := float64(in.NumNodes) / 8
		bfs, err := TGEN(in, delta, TGENOptions{Alpha: alpha, Order: OrderBFS})
		if err != nil {
			t.Fatal(err)
		}
		asc, err := TGEN(in, delta, TGENOptions{Alpha: alpha, Order: OrderAscLength})
		if err != nil {
			t.Fatal(err)
		}
		checkRegion(t, in, bfs, delta)
		checkRegion(t, in, asc, delta)
		bfsSum += bfs.Score
		ascSum += asc.Score
	}
	lo, hi := bfsSum*0.7, bfsSum*1.3
	if ascSum < lo || ascSum > hi {
		t.Errorf("asc-length order aggregate %.3f far from BFS aggregate %.3f", ascSum, bfsSum)
	}
}
