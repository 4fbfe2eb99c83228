package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/dataset"
)

// bench is one run of one workload.
type bench struct {
	w    workload
	seed int64
	dur  time.Duration
	dir  string // this run's posting stores
	nw   *network
	in   inputs
	// seen[k] is the digest of the first answer to distinct query k
	// (explore and disk-zipf: answers must repeat exactly).
	seen []atomic.Uint64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// fail records a failed operation; the first few are printed at the end.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) count(attempted int) {
	b.mu.Lock()
	b.attempted += attempted
	b.mu.Unlock()
}

// prepare generates the inputs and, for the disk workloads, builds the
// posting store (NoSync, then closed). None of it is timed.
func (b *bench) prepare(nops, nserial int) error {
	ds, err := dataset.NYLike(dataset.Config{Seed: datasetSeed, Scale: scale})
	if err != nil {
		return err
	}
	b.nw = newNetwork(ds.Graph)
	if b.in, err = b.w.generate(ds, b.seed, nops, nserial); err != nil {
		return err
	}
	b.seen = make([]atomic.Uint64, len(b.in.queries))
	logf("inputs: %d distinct queries, %d reads, %d+%d updates", len(b.in.queries), b.in.reads(), len(b.in.ops), len(b.in.serial))
	ds = nil
	if b.w.disk {
		db, err := repro.NYLikeWithStore(datasetSeed, scale, repro.StoreConfig{
			Path: b.storePath("base"), Shards: shards, CachePages: cachePages, NoSync: true})
		if err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		mb, err := dirMB(b.storePath("base"))
		if err != nil {
			return err
		}
		logf("store built: %.2f MB, cache %d pages (%.2f MB)", mb, shards*cachePages, float64(shards*cachePages*btree.PageSize)/(1<<20))
	}
	runtime.GC()
	return nil
}

func (b *bench) storePath(name string) string { return filepath.Join(b.dir, name) }

// pristine returns a store directory holding the freshly built store.
// churn mutates its store, so every open gets its own copy (made untimed);
// disk-zipf only reads and reopens the base store.
func (b *bench) pristine(copyNo int) (string, error) {
	base := b.storePath("base")
	if b.w.writeRate == 0 {
		return base, nil
	}
	dst := b.storePath(fmt.Sprintf("copy%d", copyNo))
	if err := copyDir(base, dst); err != nil {
		return "", err
	}
	return dst, nil
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirMB is the size of the files in dir, in MiB.
func dirMB(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return float64(n) / (1 << 20), nil
}

// search is the search options of distinct query k.
func (b *bench) search(k int) repro.SearchOptions {
	if b.w.method == repro.MethodAuto {
		return repro.SearchOptions{Method: repro.MethodAuto, Budget: b.in.budgets[k]}
	}
	return repro.SearchOptions{Method: b.w.method}
}

// served is a database ready to serve, and the path of its store.
type served struct {
	db    *repro.Database
	srv   *repro.Server
	store string
}

func (s *served) close() error {
	s.srv.Close()
	return s.db.Close()
}

// open builds (explore) or reopens (disk-zipf, churn) the database, starts
// the server and warms it up with the first warmup reads, sent serially so
// the caches end in the same state every time. It returns the set-up time:
// build or reopen plus warm-up.
func (b *bench) open(copyNo, workers int) (*served, time.Duration, error) {
	var path string
	if b.w.disk {
		var err error
		if path, err = b.pristine(copyNo); err != nil {
			return nil, 0, err
		}
	}
	runtime.GC()
	start := time.Now()
	var db *repro.Database
	var err error
	if b.w.disk {
		// WAL fsync on: every update is durable before it returns.
		db, err = repro.NYLikeWithStore(datasetSeed, scale, repro.StoreConfig{
			Path: path, OpenExisting: true, CachePages: cachePages})
	} else {
		db, err = repro.NYLike(datasetSeed, scale)
	}
	if err != nil {
		return nil, 0, err
	}
	db.SetScoreCache(b.w.scoreCache)
	srv, err := db.Serve(repro.ServeOptions{Workers: workers, Search: repro.SearchOptions{Method: b.w.method}})
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	s := &served{db: db, srv: srv, store: path}
	ctx := context.Background()
	for i := 0; i < b.w.warmup; i++ {
		k := b.in.key(i)
		resp := srv.Do(ctx, repro.Request{Query: b.in.queries[k], Search: b.search(k)})
		if resp.Err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up read %d: %w", i, resp.Err)
		}
	}
	return s, time.Since(start), nil
}

// phase is what one timed phase measured.
type phase struct {
	elapsed time.Duration
	lat     []time.Duration // read latencies
	// qps, p50 and p99 are medians over equal windows of the phase, so a
	// stall of a shared machine moves them little: 1 s windows for qps and
	// p50, and for p99 windows ("windows" of them) that each hold at least
	// minWindowReads reads (one window if the phase has fewer).
	qps, p50, p99 float64
	windows       int
	reads         int
	auto          int             // reads with an explicit Auto budget
	misses        int             // of those, answered late or failed
	waits         []time.Duration // explain: client latency − Plan.ActualCost
	upd           []time.Duration // update latency from its scheduled send time
	updates       int
	genLag        time.Duration // how late the update generator ran, at most
}

// minWindowReads is the fewest reads a latency window holds: 10 beyond its
// p99.
const minWindowReads = 1000

// timedPhase runs the closed-loop readers (and, with ops, the open-loop
// writer) for dur, starting at read index first. Every answer is checked;
// with explain set, each request carries Request.Explain and the queue
// wait is recorded.
func (b *bench) timedPhase(s *served, first int, ops []op, dur time.Duration, explain bool) phase {
	var (
		ph   phase
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		ends []time.Duration
	)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	var wr *writer
	if len(ops) > 0 {
		wr = &writer{b: b, db: s.db, ops: ops, start: start, lat: make([]time.Duration, 0, len(ops))}
	}
	// interleave: the first reader sends the updates that fell due
	// before each of its reads (churn); otherwise a writer goroutine
	// sends them concurrently with the reads (churn-live).
	interleave := wr != nil && !b.w.liveWrites
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			chk := newChecker(b.nw)
			lat := make([]time.Duration, 0, 1<<14)
			end := make([]time.Duration, 0, 1<<14)
			var waits []time.Duration
			auto, misses := 0, 0
			for time.Now().Before(deadline) {
				if interleave && c == 0 {
					wr.sendDue(time.Now())
				}
				i := first + int(next.Add(1)-1)
				k := b.in.key(i)
				q, search := b.in.queries[k], b.search(k)
				t := time.Now()
				resp := s.srv.Do(ctx, repro.Request{Query: q, Search: search, Explain: explain})
				d := time.Since(t)
				lat = append(lat, d)
				end = append(end, t.Add(d).Sub(start))
				late := resp.Err != nil
				if search.Budget > 0 {
					auto++
					if d > search.Budget {
						late = true
					}
					if late {
						misses++
					}
				}
				if explain && resp.Plan != nil {
					waits = append(waits, d-resp.Plan.ActualCost)
				}
				b.checkAnswer(chk, i, k, resp, ops == nil)
			}
			if interleave && c == 0 {
				wr.run()
			}
			mu.Lock()
			ph.lat = append(ph.lat, lat...)
			ends = append(ends, end...)
			ph.waits = append(ph.waits, waits...)
			ph.auto += auto
			ph.misses += misses
			mu.Unlock()
		}(c)
	}
	if wr != nil && !interleave {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.run()
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	if wr != nil {
		ph.upd, ph.genLag = wr.lat, wr.lag
	}
	ph.reads = len(ph.lat)
	ph.updates = len(ops)
	secs := int(dur / time.Second)
	if secs < 1 {
		secs = 1
	}
	ph.windows = len(ph.lat) / minWindowReads
	if ph.windows > secs {
		ph.windows = secs
	}
	if ph.windows < 1 {
		ph.windows = 1
	}
	var qps, p50, p99 []float64
	for _, l := range windows(ends, ph.lat, dur, secs) {
		qps = append(qps, float64(len(l))/(dur.Seconds()/float64(secs)))
		p50 = append(p50, durQuantile(l, 0.50, time.Millisecond))
	}
	for _, l := range windows(ends, ph.lat, dur, ph.windows) {
		p99 = append(p99, durQuantile(l, 0.99, time.Millisecond))
	}
	ph.qps, ph.p50, ph.p99 = median(qps), median(p50), median(p99)
	b.count(ph.reads + ph.updates)
	return ph
}

// windows splits the latencies lat, of reads that ended at ends, into n
// equal windows of dur by end time; reads ending after dur are dropped.
func windows(ends, lat []time.Duration, dur time.Duration, n int) [][]time.Duration {
	width := dur / time.Duration(n)
	out := make([][]time.Duration, n)
	for i, e := range ends {
		if w := int(e / width); w < n {
			out[w] = append(out[w], lat[i])
		}
	}
	return out
}

// writer sends a timed phase's updates open-loop at the workload's rate:
// update n is due at start + n/writeRate. Latency is timed from the due
// time, so a stall, or a read in flight, also counts against the updates
// queued behind it. A Compact follows every compactEvery updates.
type writer struct {
	b     *bench
	db    *repro.Database
	ops   []op
	start time.Time
	n     int             // updates sent
	lat   []time.Duration // latency of each sent update
	lag   time.Duration   // how late an update was sent, at most
}

func (w *writer) due(n int) time.Time {
	return w.start.Add(time.Duration(float64(n) / w.b.w.writeRate * float64(time.Second)))
}

// send sends the next update.
func (w *writer) send() {
	n, o, due := w.n, w.ops[w.n], w.due(w.n)
	if late := time.Since(due); late > w.lag {
		w.lag = late
	}
	if err := o.apply(w.db); err != nil {
		w.b.fail("update %d (%s): %v", n, opNames[o.kind], err)
	}
	w.lat = append(w.lat, time.Since(due))
	w.n++
	if w.n%compactEvery == 0 {
		w.b.count(1)
		if err := w.db.Compact(); err != nil {
			w.b.fail("compact after update %d: %v", n, err)
		}
	}
}

// sendDue sends every update due by now.
func (w *writer) sendDue(now time.Time) {
	for w.n < len(w.ops) && !w.due(w.n).After(now) {
		w.send()
	}
}

// run sends the remaining updates, each at its due time.
func (w *writer) run() {
	for w.n < len(w.ops) {
		if d := time.Until(w.due(w.n)); d > 0 {
			time.Sleep(d)
		}
		w.send()
	}
}

// checkAnswer validates one read's answer and, when repeat is set, checks
// that distinct query k always gets the same answer.
func (b *bench) checkAnswer(chk *checker, i, k int, resp repro.Response, repeat bool) {
	if resp.Err != nil {
		b.fail("read %d: %v", i, resp.Err)
		return
	}
	best := resp.Best()
	if err := chk.check(b.in.queries[k], best); err != nil {
		b.fail("read %d: %v", i, err)
		return
	}
	if !repeat {
		return
	}
	d := answerDigest(best)
	if !b.seen[k].CompareAndSwap(0, d) && b.seen[k].Load() != d {
		b.fail("read %d: query %d answered differently than before", i, k)
	}
}

// checkSet is the fixed probe set of a run: the first checkN distinct
// queries in read order after the warm-up reads (on disk-zipf and churn,
// the hot queries come first).
func (b *bench) checkSet() []int {
	var ks []int
	picked := map[int]bool{}
	for i := b.w.warmup; len(ks) < b.w.checkN && i < b.w.warmup+b.in.reads(); i++ {
		if k := b.in.key(i); !picked[k] {
			picked[k] = true
			ks = append(ks, k)
		}
	}
	return ks
}

// checkPass answers the probe set serially, untimed: it checks each
// answer, compares it with the timed phase's answer to the same query
// (explore, disk-zipf), digests the answers, and computes score_ratio
// against TGEN answers to the same queries.
func (b *bench) checkPass(s *served) (uint64, float64) {
	ctx := context.Background()
	chk := newChecker(b.nw)
	dg := fnvOffset
	sum, n := 0.0, 0
	repeat := b.w.writeRate == 0
	ks := b.checkSet()
	for _, k := range ks {
		resp := s.srv.Do(ctx, repro.Request{Query: b.in.queries[k], Search: b.search(k)})
		b.checkAnswer(chk, -1, k, resp, repeat)
		dg.add(resp.Best())
		ref := s.srv.DoWithOptions(ctx, repro.Request{Query: b.in.queries[k]}, repro.SearchOptions{Method: repro.MethodTGEN})
		if ref.Err != nil {
			b.fail("TGEN reference for query %d: %v", k, ref.Err)
			continue
		}
		if err := chk.check(b.in.queries[k], ref.Best()); err != nil {
			b.fail("TGEN reference for query %d: %v", k, err)
			continue
		}
		// A query TGEN answers and the timed method does not counts
		// with ratio 0; one TGEN leaves unanswered does not count.
		if a, r := resp.Best(), ref.Best(); r != nil && r.Score > 0 {
			if a != nil {
				sum += a.Score / r.Score
			}
			n++
		}
	}
	b.count(2 * len(ks))
	return uint64(dg), ratio(sum, float64(n))
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd is the untraced run: set up several times (setup_s is the
// median), run the timed phase, then check the probe set. heap_mb is the
// live heap at the end of the timed phase less the live heap before the
// first set-up, which holds the benchmark's own inputs and road network.
func (b *bench) runEndToEnd() (metrics, error) {
	harness := liveHeapMB()
	var s *served
	var setups []float64
	for i := 0; i < b.w.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
		}
		var d time.Duration
		var err error
		if s, d, err = b.open(i, b.w.workers); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		logf("set-up %d: %.3fs", i, d.Seconds())
	}
	ph := b.timedPhase(s, b.w.warmup, b.phaseOps(0), b.dur, false)
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("qps", ph.qps, "1/s")
	m.set("read_p50_ms", ph.p50, "ms")
	m.set("read_p99_ms", ph.p99, "ms")
	b.report(ph)
	ph = phase{}
	m.set("heap_mb", liveHeapMB()-harness, "MB")
	if _, err := b.finishWrites(s); err != nil {
		return nil, err
	}
	logf("timed phase done")
	dg, sr := b.checkPass(s)
	logf("check pass done")
	m.set("score_ratio", sr, "ratio")
	fmt.Printf("answer digest: %016x over %d probe queries\n", dg, len(b.checkSet()))
	if err := s.close(); err != nil {
		return nil, err
	}
	return m, nil
}

// phaseOps returns the updates of the n-th timed phase on one store
// (churn only): each phase sends writeRate × seconds updates, phase n
// after phase n-1's.
func (b *bench) phaseOps(n int) []op {
	if b.w.writeRate == 0 {
		return nil
	}
	per := int(b.w.writeRate * b.dur.Seconds())
	return b.in.ops[n*per : (n+1)*per]
}

// serialOps is the number of updates in the traced run's serial pass.
func (w workload) serialOps() int {
	if w.writeRate == 0 {
		return 0
	}
	return w.traceReads / serialUpdateEvery
}

// finishWrites compacts a churned store, so its size no longer depends on
// where the last automatic compaction fell, and returns the store's size
// (0 in memory).
func (b *bench) finishWrites(s *served) (float64, error) {
	if !b.w.disk {
		return 0, nil
	}
	if b.w.writeRate > 0 {
		if err := s.db.Compact(); err != nil {
			return 0, err
		}
	}
	mb, err := dirMB(s.store)
	if err != nil {
		return 0, err
	}
	fmt.Printf("store_mb: %.4f\n", mb)
	return mb, nil
}

// report prints what the end-to-end metrics do not carry: sample counts,
// the Auto budget misses and the update latencies.
func (b *bench) report(ph phase) {
	fmt.Printf("timed phase: %d reads in %.2fs; latency samples: %d in %d p99 windows, %d beyond p99 per window\n",
		ph.reads, ph.elapsed.Seconds(), len(ph.lat), ph.windows, len(ph.lat)/ph.windows/100)
	if ph.auto > 0 {
		fmt.Printf("budget_miss_ratio: %.4f (%d of %d Auto reads over budget)\n", ratio(float64(ph.misses), float64(ph.auto)), ph.misses, ph.auto)
	}
	if ph.updates > 0 {
		fmt.Printf("updates: %d at %.0f/s, p50 %.3f ms, p99 %.3f ms, generator lag ≤ %v\n", ph.updates, b.w.writeRate,
			durQuantile(ph.upd, 0.50, time.Millisecond), durQuantile(ph.upd, 0.99, time.Millisecond), ph.genLag)
	}
}
