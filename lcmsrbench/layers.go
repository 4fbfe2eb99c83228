package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/queryengine"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// The traced run times each layer by calling it directly, from here,
// with a span around every call: the read path in the order
// dataset.Planner.InstantiateCtx calls the layers, followed by the
// planner and the solver, exactly as the server runs them.

type spanKind uint8

const (
	spRead spanKind = iota
	spExtract
	spPrepare
	spSearch
	spBuild
	spPlan
	spSolveAPP
	spSolveTGEN
	spSolveGreedy
	spInsert
	spDelete
	spReweight
	spCompact
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"read", "roadnet.extract", "textindex.prepare", "grid.search", "dataset.build", "plan.choose",
	"core.solve.app", "core.solve.tgen", "core.solve.greedy",
	"dataset.insert", "dataset.delete", "dataset.reweight", "grid.compact",
}

// span is one timed layer call. Spans of one request share req; a child
// points at its request's root span.
type span struct {
	req        int32
	parent     int32 // index of the root span, -1 for a root
	kind       spanKind
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory; they are written out after the run. A nil
// tracer records nothing (the untimed warm-up).
type tracer struct {
	origin time.Time
	spans  []span
	req    int32
	root   int32
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// begin opens a request's root span.
func (t *tracer) begin(kind spanKind) {
	if t == nil {
		return
	}
	t.req++
	t.root = int32(len(t.spans))
	now := t.now()
	t.spans = append(t.spans, span{req: t.req, parent: -1, kind: kind, start: now})
}

// child records a child span from start to now and returns now.
func (t *tracer) child(kind spanKind, start int64) int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.spans = append(t.spans, span{req: t.req, parent: t.root, kind: kind, start: start, end: now})
	return now
}

// finish closes the root span and returns its duration.
func (t *tracer) finish() time.Duration {
	if t == nil {
		return 0
	}
	r := &t.spans[t.root]
	r.end = t.now()
	return time.Duration(r.end - r.start)
}

// layerPath holds one reader's pooled per-layer scratch, the same state a
// dataset.Planner keeps.
type layerPath struct {
	d        *dataset.Dataset
	ex       *roadnet.Extractor
	inst     core.Instance
	weights  []float64
	edges    []core.Edge
	nodeObjs [][]grid.ObjectID
	qscratch textindex.QueryScratch
	sscratch grid.SearchScratch
	strace   grid.SearchTrace
	solve    core.SolveScratch
}

// readStats are the counts and ratios of one traced read.
type readStats struct {
	nodes    int
	trace    grid.SearchTrace
	estError float64 // read span duration ÷ the planner's estimate
}

// read answers q through the layers, one span per call, and returns the
// answer in the public form.
func (lp *layerPath) read(ctx context.Context, q repro.Query, search repro.SearchOptions, tr *tracer) (*repro.Result, readStats, error) {
	var st readStats
	d := lp.d
	lambda := geo.Rect{MinX: q.Region.MinX, MinY: q.Region.MinY, MaxX: q.Region.MaxX, MaxY: q.Region.MaxY}
	tr.begin(spRead)
	d.RLock()
	t := tr.now()
	sub := lp.ex.ExtractRect(lambda)
	t = tr.child(spExtract, t)
	prepared := d.Vocab.PrepareQueryInto(q.Keywords, &lp.qscratch)
	t = tr.child(spPrepare, t)
	lp.strace.Clear()
	lp.sscratch.Trace = nil
	if tr != nil {
		lp.sscratch.Trace = &lp.strace
	}
	scores, err := d.Index.SearchInto(prepared, lambda, &lp.sscratch)
	t = tr.child(spSearch, t)
	if err != nil {
		d.RUnlock()
		tr.finish()
		return nil, st, err
	}
	n := sub.NumNodes()
	lp.weights = resize(lp.weights, n)
	for i := range lp.weights {
		lp.weights[i] = 0
	}
	lp.nodeObjs = resize(lp.nodeObjs, n)
	for i := range lp.nodeObjs {
		lp.nodeObjs[i] = lp.nodeObjs[i][:0]
	}
	for _, sc := range scores {
		local := sub.Local(d.ObjNode[sc.Obj])
		if local < 0 {
			continue
		}
		lp.weights[local] += sc.Score
		lp.nodeObjs[local] = append(lp.nodeObjs[local], sc.Obj)
	}
	lp.edges = lp.edges[:0]
	for i := 0; i < sub.NumEdges(); i++ {
		e := sub.Edge(roadnet.EdgeID(i))
		lp.edges = append(lp.edges, core.Edge{U: int32(e.U), V: int32(e.V), Length: e.Length})
	}
	err = lp.inst.Reset(n, lp.edges, lp.weights)
	t = tr.child(spBuild, t)
	d.RUnlock()
	if err != nil {
		tr.finish()
		return nil, st, err
	}
	est := plan.Default().Estimate(d.Index.EstimateSearch(prepared, lambda), n)
	method := engineMethod(search.Method)
	var estimated time.Duration
	if search.Method == repro.MethodAuto {
		c := plan.Choose(est, search.Budget, 0)
		method, estimated = c.Method, c.Estimated
	} else {
		estimated = est.Of(method)
	}
	t = tr.child(spPlan, t)
	qi := dataset.QueryInstance{In: &lp.inst, Sub: sub, NodeObjects: lp.nodeObjs, Prepared: prepared, Scratch: &lp.solve, SearchTrace: &lp.strace}
	region, err := queryengine.Solve(ctx, &qi, q.Delta, queryengine.Options{Method: method})
	tr.child(solveSpan(method), t)
	if err != nil {
		tr.finish()
		return nil, st, err
	}
	res := lp.materialize(&qi, region)
	st.nodes, st.trace = n, lp.strace
	st.estError = ratio(float64(tr.finish()), float64(estimated))
	return res, st, nil
}

// materialize converts a region into the public Result exactly as the
// repro package does.
func (lp *layerPath) materialize(qi *dataset.QueryInstance, region *core.Region) *repro.Result {
	if region == nil {
		return nil
	}
	res := &repro.Result{Score: region.Score, Length: region.Length, Nodes: make([]int, len(region.Nodes))}
	for i, v := range region.Nodes {
		res.Nodes[i] = int(qi.Sub.ToParent[v])
	}
	for _, ei := range region.Edges {
		e := qi.Sub.Edge(roadnet.EdgeID(ei))
		res.Edges = append(res.Edges, repro.EdgeSpec{U: int(qi.Sub.ToParent[e.U]), V: int(qi.Sub.ToParent[e.V]), Length: e.Length})
	}
	lp.d.RLock()
	defer lp.d.RUnlock()
	for _, id := range qi.RegionObjects(region) {
		o := lp.d.Objects[id]
		res.Objects = append(res.Objects, repro.ResultObject{ID: int(id), X: o.Point.X, Y: o.Point.Y, Score: qi.Prepared.Score(&o.Doc)})
	}
	return res
}

// update applies one live update through the dataset layer, as one root
// span.
func (lp *layerPath) update(o op, tr *tracer) error {
	var err error
	switch o.kind {
	case opInsert:
		tr.begin(spInsert)
		_, err = lp.d.Insert(geo.Point{X: o.obj.X, Y: o.obj.Y}, o.obj.Text)
	case opDelete:
		tr.begin(spDelete)
		err = lp.d.Delete(grid.ObjectID(o.id))
	default:
		tr.begin(spReweight)
		err = lp.d.Reweight(grid.ObjectID(o.id), o.factor)
	}
	tr.finish()
	return err
}

func (lp *layerPath) compact(tr *tracer) error {
	tr.begin(spCompact)
	err := lp.d.Compact()
	tr.finish()
	return err
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

func engineMethod(m repro.Method) queryengine.Method {
	switch m {
	case repro.MethodAPP:
		return queryengine.MethodAPP
	case repro.MethodGreedy:
		return queryengine.MethodGreedy
	default:
		return queryengine.MethodTGEN
	}
}

func solveSpan(m queryengine.Method) spanKind {
	switch m {
	case queryengine.MethodAPP:
		return spSolveAPP
	case queryengine.MethodGreedy:
		return spSolveGreedy
	default:
		return spSolveTGEN
	}
}

// openLayers opens the dataset behind the layer path the way
// repro.NYLikeWithStore does, and warms it up with the same serial reads
// as open, untraced.
func (b *bench) openLayers(copyNo int) (*layerPath, error) {
	cfg := dataset.Config{Seed: datasetSeed, Scale: scale}
	if b.w.disk {
		path, err := b.pristine(copyNo)
		if err != nil {
			return nil, err
		}
		st, err := grid.OpenShardedStoreWith(path, grid.ShardedOptions{CachePages: cachePages})
		if err != nil {
			return nil, err
		}
		cfg.Store, cfg.Reopen = st, true
	}
	d, err := dataset.NYLike(cfg)
	if err != nil {
		return nil, err
	}
	d.Index.SetScoreCache(b.w.scoreCache)
	lp := &layerPath{d: d, ex: roadnet.NewExtractor(d.Graph)}
	ctx := context.Background()
	for i := 0; i < b.w.warmup; i++ {
		k := b.in.key(i)
		if _, _, err := lp.read(ctx, b.in.queries[k], b.search(k), nil); err != nil {
			d.Close()
			return nil, fmt.Errorf("warm-up read %d: %w", i, err)
		}
	}
	return lp, nil
}

// serialSteps runs the traced run's serial pass: traceReads reads after
// the warm-up ones and, on churn, an update after every serialUpdateEvery
// reads and a Compact after every compactEvery updates.
func (b *bench) serialSteps(read func(j, k int) error, update func(o op) error, compact func() error) {
	u := 0
	for j := 0; j < b.w.traceReads; j++ {
		i := b.w.warmup + j
		if err := read(j, b.in.key(i)); err != nil {
			b.fail("serial read %d: %v", i, err)
		}
		if b.w.writeRate == 0 || (j+1)%serialUpdateEvery != 0 {
			continue
		}
		if err := update(b.in.serial[u]); err != nil {
			b.fail("serial update %d: %v", u, err)
		}
		u++
		if u%compactEvery == 0 {
			if err := compact(); err != nil {
				b.fail("serial compact after update %d: %v", u-1, err)
			}
		}
	}
	b.count(b.w.traceReads + u)
}

// runTraced is the traced run. (1) An untraced timed phase, as in the
// end-to-end run, gives the workload's own numbers (budget misses, update
// latency, store size); an explained timed phase gives the queue wait.
// (2) A serial pass answers a fixed read (and update) sequence through
// the public API from a fresh set-up. (3) The same sequence runs through
// the layers directly, untraced, traced, then untraced again, each from
// an identical fresh set-up; every answer must equal (2)'s bit for bit,
// and the traced pass's counts repeat exactly across runs.
// trace.overhead compares the traced pass's time with the mean of the two
// untraced passes around it, so running first or last is not counted as
// the cost of tracing.
func (b *bench) runTraced() (metrics, error) {
	m := metrics{}
	ctx := context.Background()

	s, _, err := b.open(0, b.w.workers)
	if err != nil {
		return nil, err
	}
	ph := b.timedPhase(s, b.w.warmup, b.phaseOps(0), b.dur, false)
	b.report(ph)
	m.set("budget_miss_ratio", ratio(float64(ph.misses), float64(ph.auto)), "ratio")
	m.set("update_p50_ms", durQuantile(ph.upd, 0.50, time.Millisecond), "ms")
	m.set("update_p99_ms", durQuantile(ph.upd, 0.99, time.Millisecond), "ms")
	mb, err := b.finishWrites(s)
	if err != nil {
		return nil, err
	}
	m.set("store_mb", mb, "MB")
	ops := b.phaseOps(1)
	ex := b.timedPhase(s, b.w.warmup+ph.reads, ops[:len(ops)/2], b.dur/2, true)
	m.set("queryengine.wait_ms.p50", durQuantile(ex.waits, 0.50, time.Millisecond), "ms")
	m.set("queryengine.wait_ms.p99", durQuantile(ex.waits, 0.99, time.Millisecond), "ms")
	if err := s.close(); err != nil {
		return nil, err
	}

	// (2) serial, public API, untraced, on one server worker.
	if s, _, err = b.open(1, 1); err != nil {
		return nil, err
	}
	want := make([]uint64, b.w.traceReads)
	runtime.GC()
	start := time.Now()
	b.serialSteps(func(j, k int) error {
		resp := s.srv.Do(ctx, repro.Request{Query: b.in.queries[k], Search: b.search(k)})
		want[j] = answerDigest(resp.Best())
		return resp.Err
	}, func(o op) error { return o.apply(s.db) }, s.db.Compact)
	served := time.Since(start)
	if err := s.close(); err != nil {
		return nil, err
	}

	// (3) serial, through the layers: untraced, traced, untraced, each
	// from a fresh set-up.
	before, err := b.layerPass(2, nil, want)
	if err != nil {
		return nil, err
	}
	tr := &tracer{spans: make([]span, 0, 8*b.w.traceReads)}
	lt, err := b.layerPass(3, tr, want)
	if err != nil {
		return nil, err
	}
	after, err := b.layerPass(4, nil, want)
	if err != nil {
		return nil, err
	}
	plain := (before.elapsed + after.elapsed) / 2
	m.set("trace.overhead", float64(lt.elapsed)/float64(plain)-1, "ratio")
	fmt.Printf("serial pass of %d reads: served %.3fs, layers untraced %.3fs, traced %.3fs, untraced %.3fs\n",
		b.w.traceReads, served.Seconds(), before.elapsed.Seconds(), lt.elapsed.Seconds(), after.elapsed.Seconds())

	b.layerMetrics(m, tr, lt.reads)
	nr := float64(len(lt.reads))
	hits, misses := float64(lt.cache.Hits), float64(lt.cache.Misses)
	m.set("grid.score_hit_ratio", ratio(hits, hits+misses), "ratio")
	ph2, pm2, pe2 := float64(lt.pages.Hits), float64(lt.pages.Misses), float64(lt.pages.Evictions)
	m.set("btree.page_hit_ratio", ratio(ph2, ph2+pm2), "ratio")
	m.set("btree.page_misses_per_read", ratio(pm2, nr), "count")
	m.set("btree.evictions_per_read", ratio(pe2, nr), "count")
	m.set("grid.tombstones", float64(lt.tombstones), "count")
	return m, b.writeSpans(tr)
}

// layerRun is what one serial pass through the layers saw.
type layerRun struct {
	elapsed    time.Duration
	reads      []readStats
	cache      grid.ScoreCacheStats // score-cache hits and misses during the pass
	pages      btree.CacheStats     // page-cache traffic during the pass
	tombstones int
}

// layerPass runs the serial sequence through the layers from a fresh
// set-up, recording spans into tr (nil: untraced), and checks every answer
// against want, the public API's answers to the same sequence.
func (b *bench) layerPass(copyNo int, tr *tracer, want []uint64) (layerRun, error) {
	var lr layerRun
	lp, err := b.openLayers(copyNo)
	if err != nil {
		return lr, err
	}
	defer lp.d.Close()
	ctx := context.Background()
	cacheBefore, _ := lp.d.Index.ScoreCacheStats()
	pagesBefore := pageStats(lp.d)
	chk := newChecker(b.nw)
	runtime.GC()
	start := time.Now()
	if tr != nil {
		tr.origin = start
	}
	b.serialSteps(func(j, k int) error {
		res, st, err := lp.read(ctx, b.in.queries[k], b.search(k), tr)
		if err != nil {
			return err
		}
		if tr != nil {
			lr.reads = append(lr.reads, st)
		}
		if err := chk.check(b.in.queries[k], res); err != nil {
			return err
		}
		if answerDigest(res) != want[j] {
			return fmt.Errorf("answer through the layers differs from the public API's")
		}
		return nil
	}, func(o op) error { return lp.update(o, tr) }, func() error { return lp.compact(tr) })
	lr.elapsed = time.Since(start)
	cacheAfter, _ := lp.d.Index.ScoreCacheStats()
	pagesAfter := pageStats(lp.d)
	lr.cache = grid.ScoreCacheStats{Hits: cacheAfter.Hits - cacheBefore.Hits, Misses: cacheAfter.Misses - cacheBefore.Misses}
	lr.pages = btree.CacheStats{Hits: pagesAfter.Hits - pagesBefore.Hits, Misses: pagesAfter.Misses - pagesBefore.Misses,
		Evictions: pagesAfter.Evictions - pagesBefore.Evictions}
	lr.tombstones = lp.d.Index.TombstoneCount()
	return lr, nil
}

func pageStats(d *dataset.Dataset) btree.CacheStats {
	if s, ok := d.Index.Store().(interface{ CacheStats() btree.CacheStats }); ok {
		return s.CacheStats()
	}
	return btree.CacheStats{}
}

// layerMetrics derives the per-layer metrics from the spans and the
// per-read counts of the traced serial pass.
func (b *bench) layerMetrics(m metrics, tr *tracer, reads []readStats) {
	var durs [numSpanKinds][]time.Duration
	for _, s := range tr.spans {
		durs[s.kind] = append(durs[s.kind], time.Duration(s.end-s.start))
	}
	us := time.Microsecond
	for _, x := range []struct {
		kind spanKind
		name string
	}{{spSolveAPP, "app"}, {spSolveTGEN, "tgen"}, {spSolveGreedy, "greedy"}} {
		m.set("core.solve_us."+x.name+".p50", durQuantile(durs[x.kind], 0.50, us), "us")
		m.set("core.solve_us."+x.name+".p99", durQuantile(durs[x.kind], 0.99, us), "us")
		m.set("plan.pick."+x.name, float64(len(durs[x.kind])), "count")
	}
	m.set("grid.search_us.p50", durQuantile(durs[spSearch], 0.50, us), "us")
	m.set("grid.search_us.p99", durQuantile(durs[spSearch], 0.99, us), "us")
	m.set("roadnet.extract_us.p50", durQuantile(durs[spExtract], 0.50, us), "us")
	m.set("textindex.prepare_us.p50", durQuantile(durs[spPrepare], 0.50, us), "us")
	m.set("dataset.build_us.p50", durQuantile(durs[spBuild], 0.50, us), "us")
	for _, x := range []struct {
		kind spanKind
		name string
	}{{spInsert, "insert"}, {spDelete, "delete"}, {spReweight, "reweight"}} {
		m.set("dataset.update_us."+x.name+".p50", durQuantile(durs[x.kind], 0.50, us), "us")
		m.set("dataset.update_us."+x.name+".p99", durQuantile(durs[x.kind], 0.99, us), "us")
	}
	m.set("grid.compact_ms.p50", durQuantile(durs[spCompact], 0.50, time.Millisecond), "ms")
	m.set("grid.compact_ms.max", durQuantile(durs[spCompact], 1, time.Millisecond), "ms")

	var nodes, est []float64
	var scanned, skipped, postings int64
	for _, r := range reads {
		nodes = append(nodes, float64(r.nodes))
		est = append(est, r.estError)
		scanned += r.trace.CellsScanned
		skipped += r.trace.CellsEmpty + r.trace.CellsNoTerm + r.trace.CellsCacheHit
		postings += r.trace.Postings
	}
	nr := float64(len(reads))
	m.set("roadnet.nodes.p50", quantile(nodes, 0.50), "count")
	m.set("plan.est_error.p50", quantile(est, 0.50), "ratio")
	m.set("plan.est_error.p90", quantile(est, 0.90), "ratio")
	m.set("grid.cells_scanned", ratio(float64(scanned), nr), "count")
	m.set("grid.cells_skipped", ratio(float64(skipped), nr), "count")
	m.set("grid.postings", ratio(float64(postings), nr), "count")
}

// writeSpans writes the spans as JSON lines to
// .bench_build/lcmsrbench/trace-<workload>.jsonl and prints each span
// name's self time: a span's duration minus the time its children cover.
func (b *bench) writeSpans(tr *tracer) error {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	path := filepath.Join(filepath.Dir(b.dir), "trace-"+b.w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var self [numSpanKinds][]float64
	var total [numSpanKinds]float64
	var all float64
	for i, s := range tr.spans {
		selfNs := s.end - s.start - child[i]
		fmt.Fprintf(w, `{"req":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			s.req, i, s.parent, spanNames[s.kind], s.start, s.end, selfNs)
		self[s.kind] = append(self[s.kind], float64(selfNs)/1e3)
		total[s.kind] += float64(selfNs) / 1e3
		all += float64(selfNs) / 1e3
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	fmt.Printf("%-18s %8s %12s %12s %8s\n", "span", "count", "self_p50_us", "self_mean_us", "share")
	for k := spanKind(0); k < numSpanKinds; k++ {
		if n := len(self[k]); n > 0 {
			fmt.Printf("%-18s %8d %12.1f %12.1f %7.1f%%\n", spanNames[k], n, quantile(self[k], 0.5), total[k]/float64(n), 100*total[k]/all)
		}
	}
	return nil
}
