// Package textindex implements the information-retrieval machinery of §3 of
// the paper: the vector space model of Zobel & Moffat with the exact TF/IDF
// weighting of Equation (1), the per-object normalized term weights wto of
// Equation (2), and the corpus statistics (document frequency f_t, |D|)
// they depend on. The grid index (package grid) stores these term weights
// in its per-cell inverted lists so that query-time scoring only multiplies
// precomputed factors.
//
// # Invariants and ownership rules
//
// A Vocabulary is mutable only while documents are indexed (IndexDoc); once
// a dataset is assembled it is read-only and safe for concurrent use by any
// number of query workers. Doc and Query keep their term lists sorted by
// ascending TermID — every scoring routine (Query.Score, LMQuery.Score,
// grid.Index search) relies on that order for merge-joins and for
// deterministic floating-point accumulation.
//
// Query preparation comes in two flavors with identical results:
//
//   - PrepareQuery allocates a fresh Query per call; the result is owned by
//     the caller and never mutated afterwards.
//   - PrepareQueryInto writes into a caller-owned QueryScratch and returns
//     a Query aliasing the scratch buffers. The Query is valid only until
//     the next PrepareQueryInto call on the same scratch; pool one scratch
//     per worker (dataset.Planner does) and steady-state preparation
//     performs zero allocations.
package textindex

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// TermID identifies a vocabulary term. IDs are dense, 0..NumTerms-1.
type TermID int32

// Vocabulary interns term strings to dense TermIDs and tracks document
// frequencies. It is append-only: terms are added as documents are indexed.
type Vocabulary struct {
	ids         map[string]TermID
	terms       []string
	df          []int32 // f_t: number of documents containing term t
	cf          []int32 // collection frequency (total occurrences), for the LM
	docs        int     // |D|
	totalTokens int     // Σ cf, for the LM
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]TermID)}
}

// Intern returns the TermID for term, creating it if needed.
func (v *Vocabulary) Intern(term string) TermID {
	if id, ok := v.ids[term]; ok {
		return id
	}
	id := TermID(len(v.terms))
	v.ids[term] = id
	v.terms = append(v.terms, term)
	v.df = append(v.df, 0)
	v.cf = append(v.cf, 0)
	return id
}

// Lookup returns the TermID for term, or -1 if the term is unknown.
func (v *Vocabulary) Lookup(term string) TermID {
	if id, ok := v.ids[term]; ok {
		return id
	}
	return -1
}

// Term returns the string for a TermID.
func (v *Vocabulary) Term(id TermID) string { return v.terms[id] }

// NumTerms returns the number of distinct terms.
func (v *Vocabulary) NumTerms() int { return len(v.terms) }

// NumDocs returns |D|, the number of indexed documents.
func (v *Vocabulary) NumDocs() int { return v.docs }

// DocFreq returns f_t for a term (0 for unknown ids).
func (v *Vocabulary) DocFreq(id TermID) int {
	if id < 0 || int(id) >= len(v.df) {
		return 0
	}
	return int(v.df[id])
}

// IDF returns the query-side weight w_{Q.ψ,t} = ln(1 + |D|/f_t) of
// Equation (1). Terms that appear in no document get weight 0.
func (v *Vocabulary) IDF(id TermID) float64 {
	ft := v.DocFreq(id)
	if ft == 0 {
		return 0
	}
	return math.Log(1 + float64(v.docs)/float64(ft))
}

// Doc is an indexed text description: the distinct terms of o.ψ with their
// normalized term weights wto(t) = w_{o.ψ,t} / W_{o.ψ} (Equation 2).
type Doc struct {
	Terms   []TermID  // sorted ascending
	Weights []float64 // wto, parallel to Terms
	TF      []int32   // raw term frequencies, parallel to Terms (for the LM)
}

// Weight returns wto(t) for the document, or 0 if t does not occur.
func (d *Doc) Weight(t TermID) float64 {
	i := sort.Search(len(d.Terms), func(i int) bool { return d.Terms[i] >= t })
	if i < len(d.Terms) && d.Terms[i] == t {
		return d.Weights[i]
	}
	return 0
}

// Has reports whether term t occurs in the document.
func (d *Doc) Has(t TermID) bool {
	i := sort.Search(len(d.Terms), func(i int) bool { return d.Terms[i] >= t })
	return i < len(d.Terms) && d.Terms[i] == t
}

// IndexDoc registers one object description with the vocabulary (raising
// document frequencies and |D|) and returns its Doc with normalized term
// weights. The tokens are raw terms, possibly repeated; term frequency
// tf_{t,o.ψ} is their multiplicity. Empty token lists produce an empty Doc.
func (v *Vocabulary) IndexDoc(tokens []string) Doc {
	if len(tokens) == 0 {
		v.docs++
		return Doc{}
	}
	tf := make(map[TermID]int, len(tokens))
	for _, tok := range tokens {
		if tok == "" {
			continue
		}
		tf[v.Intern(tok)]++
	}
	terms := make([]TermID, 0, len(tf))
	for t := range tf {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })

	// w_{o.ψ,t} = 1 + ln tf  (Equation 1), then normalize by the vector
	// norm W_{o.ψ} to get wto (Equation 2).
	raw := make([]float64, len(terms))
	tfs := make([]int32, len(terms))
	var norm2 float64
	for i, t := range terms {
		raw[i] = 1 + math.Log(float64(tf[t]))
		norm2 += raw[i] * raw[i]
		v.df[t]++
		v.cf[t] += int32(tf[t])
		v.totalTokens += tf[t]
		tfs[i] = int32(tf[t])
	}
	v.docs++
	norm := math.Sqrt(norm2)
	weights := make([]float64, len(terms))
	for i := range raw {
		weights[i] = raw[i] / norm
	}
	return Doc{Terms: terms, Weights: weights, TF: tfs}
}

// Query is a preprocessed keyword query: distinct query terms with their
// IDF weights and the query vector norm W_{Q.ψ}.
type Query struct {
	Terms []TermID  // sorted ascending; unknown keywords are dropped
	IDF   []float64 // w_{Q.ψ,t}, parallel to Terms
	Norm  float64   // W_{Q.ψ}
}

// PrepareQuery builds a Query from raw keywords. Keywords not present in
// the corpus contribute nothing to any score (their f_t is 0) and are
// dropped; duplicated keywords are collapsed. As in Equation (1), the query
// term frequency is taken as 1 per distinct keyword. PrepareQuery is the
// allocating reference for PrepareQueryInto, which production code runs.
func (v *Vocabulary) PrepareQuery(keywords []string) Query {
	seen := make(map[TermID]bool, len(keywords))
	var q Query
	for _, kw := range keywords {
		id := v.Lookup(kw)
		if id < 0 || seen[id] {
			continue
		}
		seen[id] = true
		q.Terms = append(q.Terms, id)
	}
	sort.Slice(q.Terms, func(i, j int) bool { return q.Terms[i] < q.Terms[j] })
	var norm2 float64
	q.IDF = make([]float64, len(q.Terms))
	for i, t := range q.Terms {
		q.IDF[i] = v.IDF(t)
		norm2 += q.IDF[i] * q.IDF[i]
	}
	q.Norm = math.Sqrt(norm2)
	return q
}

// QueryScratch is pooled storage for PrepareQueryInto. The zero value is
// ready to use. A scratch serves one prepared query at a time and is not
// safe for concurrent use; pool one per worker.
type QueryScratch struct {
	terms []TermID
	idf   []float64
}

// PrepareQueryInto is PrepareQuery with caller-owned scratch: it returns a
// Query identical to PrepareQuery(keywords) whose Terms and IDF slices alias
// s. The result is valid only until the next PrepareQueryInto call on the
// same scratch. Steady state performs zero allocations — duplicates are
// collapsed by a linear scan over the (small) distinct-term list instead of
// a map.
func (v *Vocabulary) PrepareQueryInto(keywords []string, s *QueryScratch) Query {
	s.terms = s.terms[:0]
	for _, kw := range keywords {
		id := v.Lookup(kw)
		if id < 0 || slices.Contains(s.terms, id) {
			continue
		}
		s.terms = append(s.terms, id)
	}
	slices.Sort(s.terms)
	if cap(s.idf) < len(s.terms) {
		s.idf = make([]float64, len(s.terms))
	}
	s.idf = s.idf[:len(s.terms)]
	var norm2 float64
	for i, t := range s.terms {
		s.idf[i] = v.IDF(t)
		norm2 += s.idf[i] * s.idf[i]
	}
	q := Query{IDF: s.idf, Norm: math.Sqrt(norm2)}
	if len(s.terms) > 0 {
		q.Terms = s.terms
	}
	return q
}

// FNV-1a constants for Query.Signature (FNV-0 64-bit offset basis and
// prime, Fowler/Noll/Vo).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Signature returns a 64-bit FNV-1a hash of the query's term IDs in
// order. It identifies a prepared query for caching: two queries over the
// same vocabulary with equal Terms always produce equal signatures, and
// the hash allocates nothing. It is a hash, not an identity — caches
// keyed by it must verify the full term list (and the IDF weights, which
// can drift as documents are indexed) before trusting an entry.
func (q Query) Signature() uint64 {
	h := uint64(fnvOffset64)
	for _, t := range q.Terms {
		x := uint32(t)
		h = (h ^ uint64(x&0xff)) * fnvPrime64
		h = (h ^ uint64(x>>8&0xff)) * fnvPrime64
		h = (h ^ uint64(x>>16&0xff)) * fnvPrime64
		h = (h ^ uint64(x>>24)) * fnvPrime64
	}
	return h
}

// Score computes σ(o.ψ, Q.ψ) for a document under the query, exactly as
// Equation (2): (1/W_{Q.ψ}) Σ_{t ∈ Q.ψ ∩ o.ψ} w_{Q.ψ,t} · wto(t).
func (q Query) Score(d *Doc) float64 {
	if q.Norm == 0 || len(d.Terms) == 0 {
		return 0
	}
	var sum float64
	// Merge-join the two sorted term lists.
	i, j := 0, 0
	for i < len(q.Terms) && j < len(d.Terms) {
		switch {
		case q.Terms[i] < d.Terms[j]:
			i++
		case q.Terms[i] > d.Terms[j]:
			j++
		default:
			sum += q.IDF[i] * d.Weights[j]
			i++
			j++
		}
	}
	return sum / q.Norm
}

// Tokenize splits a free-text description into lowercase terms on
// non-alphanumeric boundaries. It is deliberately simple: the paper uses
// place names/types (NY) and photo tags (USANW) as the text descriptions.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
	return fields
}

// String implements fmt.Stringer for debugging.
func (q Query) String() string {
	return fmt.Sprintf("Query{%d terms, norm=%.4f}", len(q.Terms), q.Norm)
}
