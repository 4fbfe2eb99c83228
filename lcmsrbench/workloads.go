package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro"
	"repro/internal/dataset"
)

// datasetSeed fixes the database: every run of every workload uses the
// same NYLike build, and the run's seed drives the traffic (queries,
// budgets, updates). A database per seed moved explore's medians by about
// 10% from seed to seed.
const datasetSeed = 1

// Settings shared by every workload that uses them.
const (
	scale    = 8    // NYLike scale: about 28.6k road nodes and 54k objects
	delta    = 2000 // ∆ of every query, in metres
	keywords = 3    // keywords per query
	// Hot reads: streams independent Zipf(zipfS) replays of hotspots base
	// queries each, interleaved. Several streams average the cost of many
	// hot queries, so the mix costs about the same for every seed.
	hotspots = 64
	streams  = 32
	zipfS    = 1.2
	// Disk store: shards B+-trees of cachePages cached pages each.
	shards     = 4
	cachePages = 8
	// churn: a Compact after every compactEvery updates, which at the
	// writer's 100 updates/s is one per 1 s window of the timed phase, so
	// every window of qps and read_p50_ms carries one. The traced run's
	// serial pass sends one update after every serialUpdateEvery reads,
	// which gives it 5 compactions on 5000 reads.
	compactEvery      = 100
	serialUpdateEvery = 10
)

// exploreBudgets is explore's budget ladder. On explore's queries, served
// on 2 workers of a shared 2-vCPU Xeon VM, a whole read took (p50 / p99):
// Greedy 0.04–0.08 / 0.07–0.13 ms, also when Auto falls back to it; TGEN
// 3.5 / 10.5–11.9 ms; APP 9.9 / 31 ms. Each rung is 4× the one below.
// The lowest rung is about four times Greedy's p99, so even it can be met
// (by Greedy) with the planner's Headroom of 2, and the top rung covers
// APP's p50 with that headroom and about its p99. A perfectly calibrated
// planner could meet every rung; budget_miss_ratio has no floor set by
// the ladder. The budgets are fixed, not scaled by each run's measured
// Greedy time, so the planner's choices and score_ratio repeat exactly.
var exploreBudgets = []time.Duration{
	500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond, 32 * time.Millisecond}

// workload is one traffic mix and the database it runs against. Every
// input is derived from the run's seed; see README.md for why each
// workload exists.
type workload struct {
	name   string
	areaM2 float64 // Λ area
	// method answers every read; explore uses MethodAuto with a budget
	// drawn per query from budgets.
	method  repro.Method
	budgets []time.Duration
	// hot: reads replay Zipf hot spots (see hotspots); otherwise they are
	// distinct uniform queries.
	hot bool
	// pool is the number of distinct uniform queries, or the length of
	// the hot read sequence.
	pool       int
	disk       bool    // sharded B+-tree store instead of memory
	scoreCache int     // score-cache entries, 0 = off
	clients    int     // closed-loop reader goroutines
	workers    int     // server workers
	setups     int     // set-ups per end-to-end run; setup_s is their median
	warmup     int     // reads sent serially at the end of each set-up
	checkN     int     // distinct queries answered again in the check pass
	writeRate  float64 // churn: open-loop updates per second (see churn)
	// liveWrites: a writer goroutine sends the updates while the reader
	// reads (churn-live); otherwise the reader sends each update that fell
	// due before its next read, so no read overlaps a write (churn).
	liveWrites bool
	traceReads int // reads in the traced run's serial pass
}

var workloads = map[string]workload{
	"explore": {
		name: "explore", areaM2: 1e6,
		method:  repro.MethodAuto,
		budgets: exploreBudgets,
		pool:    6000,
		clients: 2, workers: 2, setups: 5, warmup: 50, checkN: 200,
		traceReads: 600,
	},
	"disk-zipf": {
		name: "disk-zipf", areaM2: 4e6,
		method: repro.MethodGreedy,
		hot:    true, pool: 400000,
		disk: true, scoreCache: 16384,
		clients: 1, workers: 1, setups: 5, warmup: 1000, checkN: 256,
		traceReads: 4000,
	},
	"churn": churn,
	// churn-live is churn with the writer on its own goroutine. It is not
	// in BENCHMARK.json: a Reweight that lands between a read's solve and
	// the building of its Result makes Result.Score differ from the sum of
	// Result.Objects[].Score (Database.materialize re-reads the object
	// weights after the solve), and the answer check fails on it.
	"churn-live": func() workload { w := churn; w.name, w.liveWrites = "churn-live", true; return w }(),
}

// churn is disk-zipf's read path with updates interleaved between its
// reads (see README.md).
var churn = workload{
	name: "churn", areaM2: 4e6,
	method: repro.MethodGreedy,
	hot:    true, pool: 400000,
	disk: true, scoreCache: 16384,
	clients: 1, workers: 1, setups: 5, warmup: 1000, checkN: 256,
	// 1000 updates in a 10 s phase: the fewest that leave 10 samples
	// beyond update_p99_ms. An update costs about 0.2–0.3 ms with its
	// WAL fsync, so updates take a few percent of the phase; one waits
	// at most for the read in flight when it falls due.
	writeRate:  100,
	traceReads: 5000,
}

// inputs are the generated queries and updates of one run.
type inputs struct {
	queries []repro.Query   // distinct queries
	budgets []time.Duration // per distinct query (explore)
	seq     []int32         // read i asks queries[seq[i]]; nil: queries[i]
	ops     []op            // churn: the timed phases' updates, in send order
	serial  []op            // churn: the traced run's serial-pass updates
}

func (in *inputs) reads() int {
	if in.seq != nil {
		return len(in.seq)
	}
	return len(in.queries)
}

// key returns the distinct-query index of read i (reads wrap around).
func (in *inputs) key(i int) int {
	i %= in.reads()
	if in.seq != nil {
		return int(in.seq[i])
	}
	return i
}

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opReweight
)

var opNames = [...]string{"insert", "delete", "reweight"}

// op is one live update. Deletes and reweights always target a live id,
// so no update of a generated sequence fails.
type op struct {
	kind   opKind
	id     int
	factor float64
	obj    repro.ObjectSpec
}

func toPublic(q dataset.Query) repro.Query {
	return repro.Query{Keywords: q.Keywords, Delta: q.Delta, Region: repro.Rect{
		MinX: q.Lambda.MinX, MinY: q.Lambda.MinY, MaxX: q.Lambda.MaxX, MaxY: q.Lambda.MaxY}}
}

// generate derives the run's queries and updates from the seed, using an
// in-memory build of the same database.
// Both update streams start from the freshly built database.
func (w workload) generate(ds *dataset.Dataset, seed int64, nops, nserial int) (inputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var in inputs
	if !w.hot {
		qs, err := ds.GenQueries(rng, w.pool, keywords, w.areaM2, delta)
		if err != nil {
			return in, err
		}
		for _, q := range qs {
			in.queries = append(in.queries, toPublic(q))
			in.budgets = append(in.budgets, w.budgets[rng.Intn(len(w.budgets))])
		}
	} else {
		ids := map[string]int32{}
		per := w.pool / streams
		in.seq = make([]int32, per*streams)
		for st := 0; st < streams; st++ {
			qs, err := ds.GenHotspotQueries(rng, per, hotspots, keywords, w.areaM2, delta, zipfS)
			if err != nil {
				return in, err
			}
			for i, q := range qs {
				k := fmt.Sprintf("%q %v %v", q.Keywords, q.Delta, q.Lambda)
				id, ok := ids[k]
				if !ok {
					id = int32(len(in.queries))
					ids[k] = id
					in.queries = append(in.queries, toPublic(q))
				}
				in.seq[i*streams+st] = id
			}
		}
	}
	if nops > 0 {
		in.ops = genOps(rng, in.queries, len(ds.Objects), nops)
		in.serial = genOps(rng, in.queries, len(ds.Objects), nserial)
	}
	return in, nil
}

// genOps draws a seeded insert/delete/reweight mix of 1/4, 1/4 and 1/2,
// the mix of `lcmsr -updates`. As many inserts as deletes keep the live
// object count level, so store_mb grows with the deleted ids' slots and
// not with the object count. Inserts land inside a random query's Λ half
// of the time, so they change answers, and carry one to three query
// keywords.
func genOps(rng *rand.Rand, qs []repro.Query, objects, n int) []op {
	var terms []string
	seen := map[string]bool{}
	for _, q := range qs {
		for _, t := range q.Keywords {
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
	}
	live := make([]int, objects)
	for i := range live {
		live[i] = i
	}
	next := objects
	var bounds repro.Rect
	bounds.MinX, bounds.MinY = math.Inf(1), math.Inf(1)
	bounds.MaxX, bounds.MaxY = math.Inf(-1), math.Inf(-1)
	for _, q := range qs {
		bounds.MinX = math.Min(bounds.MinX, q.Region.MinX)
		bounds.MinY = math.Min(bounds.MinY, q.Region.MinY)
		bounds.MaxX = math.Max(bounds.MaxX, q.Region.MaxX)
		bounds.MaxY = math.Max(bounds.MaxY, q.Region.MaxY)
	}
	ops := make([]op, 0, n)
	for len(ops) < n {
		switch p := rng.Float64(); {
		case p < 0.25:
			r := bounds
			if rng.Intn(2) == 0 {
				r = qs[rng.Intn(len(qs))].Region
			}
			words := make([]string, 1+rng.Intn(3))
			for i := range words {
				words[i] = terms[rng.Intn(len(terms))]
			}
			ops = append(ops, op{kind: opInsert, obj: repro.ObjectSpec{
				X:    r.MinX + rng.Float64()*(r.MaxX-r.MinX),
				Y:    r.MinY + rng.Float64()*(r.MaxY-r.MinY),
				Text: strings.Join(words, " "),
			}})
			live = append(live, next)
			next++
		case p < 0.5:
			j := rng.Intn(len(live))
			ops = append(ops, op{kind: opDelete, id: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			ops = append(ops, op{kind: opReweight, id: live[rng.Intn(len(live))], factor: 0.5 + 1.5*rng.Float64()})
		}
	}
	return ops
}

// apply sends one update through the public API.
func (o op) apply(db *repro.Database) error {
	switch o.kind {
	case opInsert:
		_, err := db.Insert(o.obj)
		return err
	case opDelete:
		return db.Delete(o.id)
	default:
		return db.Reweight(o.id, o.factor)
	}
}
