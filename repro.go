// Package repro is a Go implementation of the length-constrained
// maximum-sum region (LCMSR) query of Cao, Cong, Jensen and Yiu,
// "Retrieving Regions of Interest for User Exploration", PVLDB 7(9), 2014.
//
// Given a road network with geo-textual points of interest, an LCMSR query
// ⟨keywords, ∆, Λ⟩ returns the connected subgraph of the network inside
// the rectangle Λ whose total road length is at most ∆ and whose points
// of interest are maximally relevant to the keywords — the "best region
// to go explore". Answering the query exactly is NP-hard; the package
// provides the paper's three algorithms:
//
//   - MethodAPP — the (5+ε)-approximation with a provable quality bound;
//   - MethodTGEN — the tuple-generation heuristic (best accuracy and
//     speed in practice, the recommended default);
//   - MethodGreedy — fast frontier expansion with lower accuracy.
//
// A Database is built either from caller-supplied nodes, edges and
// objects (New) or from the built-in synthetic datasets mirroring the
// paper's experimental setting (NYLike, USANWLike). The API is
// context-first: every query path — Do (the unified Request/Response
// form), the Run/RunTopK wrappers, RunBatch, and a Server's Do/Submit —
// takes a context.Context whose cancellation or deadline is honored
// mid-solve, so a slow query can always be bounded. Database.Serve
// starts a streaming server with deadline-aware admission and load
// shedding; Server.HTTPHandler exposes it over HTTP as JSON.
//
// Basic usage:
//
//	db, err := repro.NYLike(1, 0.25)
//	...
//	qs, err := db.GenQueries(rand.New(rand.NewSource(1)), 1, 3, 100e6, 10_000)
//	...
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := db.Run(ctx, qs[0], repro.SearchOptions{})
//	fmt.Println(res.Score, res.Length, len(res.Objects))
package repro

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/btree"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/roadnet"
)

// Rect is an axis-aligned rectangle in the dataset's planar coordinate
// system (metres for the built-in datasets).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

func (r Rect) toGeo() geo.Rect {
	return geo.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

func fromGeo(r geo.Rect) Rect { return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY} }

// Query is an LCMSR query ⟨ψ, ∆, Λ⟩.
type Query struct {
	// Keywords is the query keyword set Q.ψ.
	Keywords []string
	// Delta is the length constraint Q.∆: the maximum total road length
	// of the returned region, in coordinate units.
	Delta float64
	// Region is the rectangular region of interest Q.Λ.
	Region Rect
	// Weighting selects how matching objects are scored (§2 allows
	// several definitions of an object's weight). Zero value: relevance.
	Weighting Weighting
}

// Weighting is the object-weight definition used for a query (§2).
type Weighting int

const (
	// WeightingRelevance uses the vector-space text relevance σ(o.ψ, Q.ψ)
	// of Equation (1)/(2) — the paper's default.
	WeightingRelevance Weighting = iota
	// WeightingRating uses the object's rating/popularity when it matches
	// the keywords, zero otherwise.
	WeightingRating
	// WeightingLanguageModel uses the Dirichlet-smoothed language model
	// (the alternative IR model §3 mentions).
	WeightingLanguageModel
)

// NodeSpec declares a road-network node at a planar position.
type NodeSpec struct {
	X, Y float64
}

// EdgeSpec declares an undirected road segment. A zero Length means
// "use the Euclidean distance between the endpoints".
type EdgeSpec struct {
	U, V   int
	Length float64
}

// ObjectSpec declares a geo-textual object: a location and a free-text
// description (tokenized on non-alphanumeric boundaries, lowercased).
type ObjectSpec struct {
	X, Y float64
	Text string
}

// Database is a queryable LCMSR database: a road network, its
// geo-textual objects, and the text/spatial indexes over them. The
// object set is live — Insert, Delete and Reweight mutate it while
// queries keep running (queries serialize against mutations through an
// internal reader/writer lock and always observe a consistent state).
type Database struct {
	ds *dataset.Dataset
}

// New builds a Database from explicit nodes, edges and objects. Objects
// are snapped to their nearest road node, as in the paper's preprocessing.
func New(nodes []NodeSpec, edges []EdgeSpec, objects []ObjectSpec) (*Database, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("repro: need at least one node")
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("repro: need at least one object")
	}
	b := roadnet.NewBuilder()
	for _, n := range nodes {
		b.AddNode(geo.Point{X: n.X, Y: n.Y})
	}
	for i, e := range edges {
		var err error
		if e.Length == 0 {
			err = b.AddEdgeEuclidean(roadnet.NodeID(e.U), roadnet.NodeID(e.V))
		} else {
			err = b.AddEdge(roadnet.NodeID(e.U), roadnet.NodeID(e.V), e.Length)
		}
		if err != nil {
			return nil, fmt.Errorf("repro: edge %d: %w", i, err)
		}
	}
	g := b.Build()
	ds, err := dataset.FromObjects("custom", g, toObjectInputs(objects))
	if err != nil {
		return nil, err
	}
	return &Database{ds: ds}, nil
}

func toObjectInputs(objects []ObjectSpec) []dataset.ObjectInput {
	out := make([]dataset.ObjectInput, len(objects))
	for i, o := range objects {
		out[i] = dataset.ObjectInput{Point: geo.Point{X: o.X, Y: o.Y}, Text: o.Text}
	}
	return out
}

// NYLike builds the synthetic Manhattan-style dataset mirroring the
// paper's New York setting (see DESIGN.md for the scale mapping). The
// seed makes the build reproducible; scale multiplies the default size
// (1.0 ≈ 3.6k road nodes and 6.8k objects).
func NYLike(seed int64, scale float64) (*Database, error) {
	return NYLikeWithStore(seed, scale, StoreConfig{})
}

// USANWLike builds the synthetic northwest-USA-style dataset (sparser
// rural network, tag-style text). scale 1.0 ≈ 5k nodes and objects.
func USANWLike(seed int64, scale float64) (*Database, error) {
	return USANWLikeWithStore(seed, scale, StoreConfig{})
}

// StoreConfig selects the posting-list store backing the grid index.
// The zero value keeps posting lists in memory.
type StoreConfig struct {
	// Path is where the postings live on disk: a single B+-tree file when
	// Shards <= 1, a directory of per-shard trees when Shards > 1. Empty
	// keeps the postings in memory (combined with Shards > 1 it is an
	// error — shards need somewhere to live). The store is built fresh at
	// Path; building over an existing store is refused rather than
	// silently overwriting it.
	Path string
	// Shards > 1 partitions the cell space across that many independent
	// B+-trees (one file, page cache and lock each), so concurrent cold
	// reads scale with cores instead of serializing on one tree. The
	// count is recorded in the store's manifest header. 1 uses the
	// single-tree layout; 0 with a non-empty Path also means 1.
	Shards int
	// CachePages caps each tree's page cache (0 = default, 256 pages).
	CachePages int
	// NoSync disables the store's fsync discipline during the build. Bulk
	// index builds run much faster without per-commit fsyncs, at the price
	// that a crash mid-build can corrupt the store (rebuild it — the build
	// is reproducible). Leave it false for stores that must survive power
	// loss.
	NoSync bool
	// OpenExisting opens the store already at Path instead of creating a
	// fresh one. For a sharded store this restores the database exactly as
	// it was: committed metadata plus WAL replay recover every live update
	// applied before the last close, including updates that never reached
	// a compaction. (A single-file store carries no metadata; reopening
	// one is only correct if no live updates were ever applied to it.)
	// Shards is ignored — the shard count comes from the store manifest.
	OpenExisting bool
}

func (sc StoreConfig) open() (grid.Store, error) {
	if sc.Path == "" {
		if sc.Shards > 1 {
			return nil, fmt.Errorf("repro: a sharded store needs a directory path")
		}
		if sc.OpenExisting {
			return nil, fmt.Errorf("repro: OpenExisting needs a path")
		}
		return nil, nil // in-memory
	}
	if sc.OpenExisting {
		fi, err := os.Stat(sc.Path)
		if err != nil {
			return nil, fmt.Errorf("repro: open store: %w", err)
		}
		if fi.IsDir() {
			return grid.OpenShardedStoreWith(sc.Path, grid.ShardedOptions{CachePages: sc.CachePages, NoSync: sc.NoSync})
		}
		return grid.OpenBTreeStore(sc.Path)
	}
	if sc.Shards > 1 {
		return grid.CreateShardedStore(sc.Path, grid.ShardedOptions{Shards: sc.Shards, CachePages: sc.CachePages, NoSync: sc.NoSync})
	}
	return grid.NewBTreeStoreWith(sc.Path, btree.Options{CachePages: sc.CachePages, NoSync: sc.NoSync})
}

// ShardHealth is one shard's scrub outcome: Err is nil for a verified-
// consistent shard, a btree.ErrCorrupt-wrapping error for a damaged one.
// Pages/Keys summarize what the verifier walked.
type ShardHealth struct {
	Shard int
	Pages int
	Keys  uint64
	Err   error
}

// ScrubReport is the outcome of ScrubStore: one entry per shard (a
// single-tree store reports as shard 0).
type ScrubReport struct {
	Shards []ShardHealth
}

// Err returns every shard failure joined, or nil when the whole store
// verified clean.
func (r ScrubReport) Err() error {
	var errs []error
	for _, sh := range r.Shards {
		if sh.Err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", sh.Shard, sh.Err))
		}
	}
	return errors.Join(errs...)
}

// String renders one line per shard.
func (r ScrubReport) String() string {
	var b strings.Builder
	for _, sh := range r.Shards {
		if sh.Err != nil {
			fmt.Fprintf(&b, "shard %04d: CORRUPT: %v\n", sh.Shard, sh.Err)
		} else {
			fmt.Fprintf(&b, "shard %04d: ok: %d pages, %d keys\n", sh.Shard, sh.Pages, sh.Keys)
		}
	}
	return b.String()
}

// ScrubStore opens the posting store at path (either layout), verifies
// every page of every shard — checksums, page linkage, key order, counts —
// and reports per shard. A clean report means the store is readable end to
// end; a corrupt shard is reported (typed btree.ErrCorrupt) without
// touching the others. The store is opened read-only in effect (scrubbing
// writes nothing) and closed again before returning.
func ScrubStore(path string) (ScrubReport, error) {
	st, err := grid.OpenStore(path)
	if err != nil {
		return ScrubReport{}, fmt.Errorf("repro: scrub %s: %w", path, err)
	}
	defer st.Close()
	rep := st.Scrub()
	out := ScrubReport{Shards: make([]ShardHealth, len(rep.Shards))}
	for i, sh := range rep.Shards {
		out.Shards[i] = ShardHealth{Shard: sh.Shard, Pages: sh.Stats.Pages, Keys: sh.Stats.Keys, Err: sh.Err}
	}
	return out, nil
}

// NYLikeWithStore is NYLike with an explicit posting-store configuration;
// close the Database to flush and release a disk-backed store.
func NYLikeWithStore(seed int64, scale float64, sc StoreConfig) (*Database, error) {
	store, err := sc.open()
	if err != nil {
		return nil, err
	}
	ds, err := dataset.NYLike(dataset.Config{Seed: seed, Scale: scale, Store: store, Reopen: sc.OpenExisting})
	if err != nil {
		discardStore(store, sc.Path, sc.OpenExisting)
		return nil, err
	}
	return &Database{ds: ds}, nil
}

// USANWLikeWithStore is USANWLike with an explicit posting-store
// configuration.
func USANWLikeWithStore(seed int64, scale float64, sc StoreConfig) (*Database, error) {
	store, err := sc.open()
	if err != nil {
		return nil, err
	}
	ds, err := dataset.USANWLike(dataset.Config{Seed: seed, Scale: scale, Store: store, Reopen: sc.OpenExisting})
	if err != nil {
		discardStore(store, sc.Path, sc.OpenExisting)
		return nil, err
	}
	return &Database{ds: ds}, nil
}

// discardStore disposes of a store whose dataset build failed: the store
// was created by this call and holds partial postings, so leaving it
// would make the (create-fresh) retry fail on "already holds a store".
// Removal only touches the store's own files. A preexisting store
// (OpenExisting) is closed but never removed — it wasn't ours to create.
func discardStore(store grid.Store, path string, preexisting bool) {
	if c, ok := store.(interface{ Close() error }); ok {
		c.Close()
		if !preexisting {
			grid.RemoveStore(path)
		}
	}
}

// Close flushes and releases the posting store backing the Database when
// it is disk-backed; it is a no-op for in-memory databases. The Database
// must not be queried afterwards.
func (db *Database) Close() error { return db.ds.Close() }

// StoreStats reports the layout and page-cache counters of a disk-backed
// posting store.
type StoreStats struct {
	// Shards is the number of B+-tree shards (1 for the single-tree
	// layout).
	Shards int
	// CacheHits/CacheMisses/CacheEvictions aggregate page-cache traffic
	// across all shards since the store was opened.
	CacheHits, CacheMisses, CacheEvictions uint64
	// CachedPages is the number of pages currently resident.
	CachedPages int
	// Tombstones is the number of deleted objects whose postings are
	// filtered at query time and still await removal by the next Compact.
	// It is store-independent — in-memory databases report it too.
	Tombstones int
	// ScoreCache holds the hot-query score cache counters when one is
	// enabled (SetScoreCache); nil otherwise. It is store-independent —
	// in-memory databases report it too.
	ScoreCache *ScoreCacheStats
}

// ScoreCacheStats are the hot-query score cache counters: hits and misses
// of per-(cell, query) cached score replays, entries evicted by the
// bounded clock, and the current live entry count.
type ScoreCacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// StoreStats returns posting-store statistics, or ok == false when the
// Database uses the in-memory store and no score cache is enabled.
func (db *Database) StoreStats() (st StoreStats, ok bool) {
	st.Tombstones = db.ds.Index.TombstoneCount()
	if cs, cacheOK := db.ds.Index.ScoreCacheStats(); cacheOK {
		st.ScoreCache = &ScoreCacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
		}
		ok = true
	}
	s, hasStats := db.ds.Index.Store().(interface{ CacheStats() btree.CacheStats })
	if !hasStats {
		return st, ok
	}
	cs := s.CacheStats()
	st.Shards = 1
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheEvictions = cs.Evictions
	st.CachedPages = cs.Resident
	if n, ok := s.(interface{ NumShards() int }); ok {
		st.Shards = n.NumShards()
	}
	return st, true
}

// SetScoreCache enables a bounded cache of roughly `entries` per-(cell,
// query) partial score contributions on the search path, or disables it
// when entries <= 0 (the default). Cached entries are keyed by the index
// update epoch, so every Insert/Delete/Reweight/Compact invalidates them
// wholesale; hot repeated queries then serve their interior cells from
// cache without touching the posting store, with answers bit-identical
// to the uncached path. Counters surface through StoreStats.
func (db *Database) SetScoreCache(entries int) {
	db.ds.Index.SetScoreCache(entries)
}

// NumNodes returns the number of road-network nodes.
func (db *Database) NumNodes() int { return db.ds.Graph.NumNodes() }

// NumEdges returns the number of road segments.
func (db *Database) NumEdges() int { return db.ds.Graph.NumEdges() }

// NumObjects returns the number of geo-textual objects (tombstoned ids
// from deletions stay counted — ids are never reused).
func (db *Database) NumObjects() int {
	db.ds.RLock()
	defer db.ds.RUnlock()
	return len(db.ds.Objects)
}

// ErrNoSuchObject reports a Delete or Reweight aimed at an id that was
// never allocated or that was already deleted.
var ErrNoSuchObject = grid.ErrNoSuchObject

// Insert adds a geo-textual object to the live database and returns its
// id (ids are dense and never reused). The object is immediately visible
// to queries; on a disk-backed sharded store it is durable in the
// write-ahead log before Insert returns. The text may be empty.
func (db *Database) Insert(o ObjectSpec) (int, error) {
	id, err := db.ds.Insert(geo.Point{X: o.X, Y: o.Y}, o.Text)
	return int(id), err
}

// Delete removes the object with the given id from the live database:
// it stops matching every query, but its id stays allocated (corpus
// statistics treat it as an empty document, so scores of the remaining
// objects match a database that never held it with an empty placeholder
// in its slot). Deleting a deleted or unknown id fails.
func (db *Database) Delete(id int) error {
	return db.ds.Delete(grid.ObjectID(id))
}

// Reweight scales the term weights of one object by factor (> 0): its
// relevance contribution to every matching query scales accordingly.
// The object's term set is fixed — to change text, Delete and Insert.
func (db *Database) Reweight(id int, factor float64) error {
	return db.ds.Reweight(grid.ObjectID(id), factor)
}

// Compact folds pending live updates into the posting store's shard
// trees and commits a metadata checkpoint, truncating the write-ahead
// logs. It bounds reopen time after many updates; queries pause for the
// duration. A no-op for in-memory databases. Compaction also runs
// automatically every few thousand updates and on Close.
func (db *Database) Compact() error { return db.ds.Compact() }

// Bounds returns the bounding rectangle of the road network.
func (db *Database) Bounds() Rect { return fromGeo(db.ds.Graph.BBox()) }

// GenQueries generates a reproducible query workload as §7.1 of the paper
// does: rectangles of the given area anchored at random object locations,
// keywords drawn from the terms present inside each rectangle weighted by
// frequency. areaM2 is the Λ area in squared coordinate units and delta
// the length budget.
func (db *Database) GenQueries(rng *rand.Rand, count, numKeywords int, areaM2, delta float64) ([]Query, error) {
	qs, err := db.ds.GenQueries(rng, count, numKeywords, areaM2, delta)
	if err != nil {
		return nil, err
	}
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Keywords: q.Keywords, Delta: q.Delta, Region: fromGeo(q.Lambda)}
	}
	return out, nil
}

// GenHotspotQueries generates a Zipfian hot-spot workload: `hotspots`
// distinct base queries (generated exactly as GenQueries does) replayed
// `count` times with Zipf(zipfS) popularity, the first base query being
// the hottest. zipfS must be > 1; around 1.1–1.5 matches real map-search
// skew. This is the workload SetScoreCache is built for.
func (db *Database) GenHotspotQueries(rng *rand.Rand, count, hotspots, numKeywords int, areaM2, delta, zipfS float64) ([]Query, error) {
	qs, err := db.ds.GenHotspotQueries(rng, count, hotspots, numKeywords, areaM2, delta, zipfS)
	if err != nil {
		return nil, err
	}
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Keywords: q.Keywords, Delta: q.Delta, Region: fromGeo(q.Lambda)}
	}
	return out, nil
}

// toDatasetQuery validates a public query and converts it for the engine.
func toDatasetQuery(q Query) (dataset.Query, error) {
	if len(q.Keywords) == 0 {
		return dataset.Query{}, fmt.Errorf("query has no keywords")
	}
	if q.Delta <= 0 {
		return dataset.Query{}, fmt.Errorf("query ∆ must be positive, got %v", q.Delta)
	}
	mode := dataset.WeightRelevance
	switch q.Weighting {
	case WeightingRating:
		mode = dataset.WeightRating
	case WeightingLanguageModel:
		mode = dataset.WeightLanguageModel
	}
	return dataset.Query{
		Keywords: q.Keywords,
		Delta:    q.Delta,
		Lambda:   q.Region.toGeo(),
		Mode:     mode,
	}, nil
}

// Load reads a Database from a dataset file written by cmd/datagen (or
// Database.Save); all indexes are rebuilt on load.
func Load(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("repro: load: %w", err)
	}
	defer f.Close()
	ds, err := dataset.Read(f)
	if err != nil {
		return nil, err
	}
	return &Database{ds: ds}, nil
}

// Save writes the Database's network and objects to a dataset file that
// Load can read back.
func (db *Database) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("repro: save: %w", err)
	}
	if _, err := db.ds.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
