package main

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/roadnet"
)

// network is a compact copy of the road network's geometry — node
// positions and adjacency with edge lengths — that the answer checks
// compare every returned region against.
type network struct {
	x, y   []float64
	off    []int32 // adjacency of node v: to[off[v]:off[v+1]]
	to     []int32
	length []float64
}

func newNetwork(g *roadnet.Graph) *network {
	n := g.NumNodes()
	nw := &network{x: make([]float64, n), y: make([]float64, n), off: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		p := g.Point(roadnet.NodeID(v))
		nw.x[v], nw.y[v] = p.X, p.Y
		for _, h := range g.Neighbors(roadnet.NodeID(v)) {
			nw.to = append(nw.to, int32(h.To))
			nw.length = append(nw.length, h.Length)
		}
		nw.off[v+1] = int32(len(nw.to))
	}
	return nw
}

// hasEdge reports whether the network has a road u–v of exactly length l.
func (nw *network) hasEdge(u, v int, l float64) bool {
	if u < 0 || u >= len(nw.x) || v < 0 || v >= len(nw.x) {
		return false
	}
	for i := nw.off[u]; i < nw.off[u+1]; i++ {
		if int(nw.to[i]) == v && nw.length[i] == l {
			return true
		}
	}
	return false
}

// checker validates regions against the network. It keeps per-node
// scratch, so each goroutine owns one.
type checker struct {
	nw     *network
	stamp  []uint32
	parent []int32
	epoch  uint32
}

func newChecker(nw *network) *checker {
	return &checker{nw: nw, stamp: make([]uint32, len(nw.x)), parent: make([]int32, len(nw.x))}
}

func (c *checker) find(v int32) int32 {
	for c.parent[v] != v {
		c.parent[v] = c.parent[c.parent[v]]
		v = c.parent[v]
	}
	return v
}

// check verifies one answer: Length ≤ ∆, Length is the sum of the edge
// lengths, every edge is a road of the network between two region nodes,
// the nodes lie inside Λ and are connected, and Score is the sum of the
// object scores. A nil region (no object matched) passes.
func (c *checker) check(q repro.Query, r *repro.Result) error {
	if r == nil {
		return nil
	}
	if len(r.Nodes) == 0 {
		return fmt.Errorf("region has no nodes")
	}
	if !(r.Length <= q.Delta) {
		return fmt.Errorf("length %v exceeds ∆ %v", r.Length, q.Delta)
	}
	c.epoch++
	if c.epoch == 0 {
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
	rect := q.Region
	for _, v := range r.Nodes {
		if v < 0 || v >= len(c.nw.x) {
			return fmt.Errorf("node %d out of range", v)
		}
		if c.stamp[v] == c.epoch {
			return fmt.Errorf("node %d listed twice", v)
		}
		x, y := c.nw.x[v], c.nw.y[v]
		if x < rect.MinX || x > rect.MaxX || y < rect.MinY || y > rect.MaxY {
			return fmt.Errorf("node %d at (%v, %v) lies outside Λ", v, x, y)
		}
		c.stamp[v] = c.epoch
		c.parent[v] = int32(v)
	}
	sum := 0.0
	components := len(r.Nodes)
	for _, e := range r.Edges {
		if !c.nw.hasEdge(e.U, e.V, e.Length) {
			return fmt.Errorf("edge %d–%d (length %v) is not a road of the network", e.U, e.V, e.Length)
		}
		if c.stamp[e.U] != c.epoch || c.stamp[e.V] != c.epoch {
			return fmt.Errorf("edge %d–%d leaves the region's nodes", e.U, e.V)
		}
		sum += e.Length
		if a, b := c.find(int32(e.U)), c.find(int32(e.V)); a != b {
			c.parent[a] = b
			components--
		}
	}
	if components != 1 {
		return fmt.Errorf("region is not connected (%d components)", components)
	}
	if !approxEqual(sum, r.Length) {
		return fmt.Errorf("length %v differs from the edge sum %v", r.Length, sum)
	}
	score := 0.0
	for _, o := range r.Objects {
		score += o.Score
	}
	if !approxEqual(score, r.Score) {
		return fmt.Errorf("score %v differs from the object score sum %v", r.Score, score)
	}
	return nil
}

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// digest is a 64-bit FNV-1a hash over answers. Equal answers — bit for
// bit — give equal digests.
type digest uint64

const fnvOffset digest = 14695981039346656037

func (d *digest) word(w uint64) {
	for i := 0; i < 8; i++ {
		*d ^= digest(w & 0xff)
		*d *= 1099511628211
		w >>= 8
	}
}

func (d *digest) float(f float64) { d.word(math.Float64bits(f)) }

// add folds one answer (nil: no region) into d.
func (d *digest) add(r *repro.Result) {
	if r == nil {
		d.word(0)
		return
	}
	d.word(1)
	d.float(r.Score)
	d.float(r.Length)
	d.word(uint64(len(r.Nodes)))
	for _, v := range r.Nodes {
		d.word(uint64(v))
	}
	d.word(uint64(len(r.Edges)))
	for _, e := range r.Edges {
		d.word(uint64(e.U))
		d.word(uint64(e.V))
		d.float(e.Length)
	}
	d.word(uint64(len(r.Objects)))
	for _, o := range r.Objects {
		d.word(uint64(o.ID))
		d.float(o.Score)
	}
}

// answerDigest is the digest of a single answer, never 0 (0 marks "not
// seen yet" in the per-query tables).
func answerDigest(r *repro.Result) uint64 {
	d := fnvOffset
	d.add(r)
	return uint64(d) | 1
}
