// Package vectordb is an in-memory vector store with cosine-similarity
// search — the substrate behind the paper's §4 setup, where scene-summary
// embeddings are inserted into a VectorDB for question answering. It is a
// real (if small) index, not a stub: documents are validated, search returns
// exact top-k. An Index is a finished set of documents built in one
// step, which is how the runtime and the imperative baseline hand out a run's
// embeddings; whoever built it owns it, so workflows are isolated by
// construction.
package vectordb

import (
	"fmt"
	"math"
	"sort"
)

// Doc is one stored vector with its payload.
type Doc struct {
	ID     string
	Vector []float64
	Text   string
	Meta   map[string]string
}

// Match is one search result.
type Match struct {
	Doc   Doc
	Score float64 // cosine similarity in [-1, 1]
}

// Index is a fixed, ordered set of documents with cosine-similarity search.
// Not goroutine-safe: the simulation is single-threaded.
type Index struct {
	dim  int
	docs []Doc
}

// NewIndex checks docs one at a time — dimension, zero vector, and an ID no
// earlier document has, looked up in a set — and returns the index over them.
// It keeps docs; the caller must not reuse it.
func NewIndex(dim int, docs []Doc) (*Index, error) {
	if dim <= 0 {
		panic(fmt.Sprintf("vectordb: non-positive dimension %d", dim))
	}
	seen := make(map[string]struct{}, len(docs))
	for _, d := range docs {
		if err := checkDoc(dim, d); err != nil {
			return nil, err
		}
		if _, dup := seen[d.ID]; dup {
			return nil, fmt.Errorf("vectordb: duplicate doc %q", d.ID)
		}
		seen[d.ID] = struct{}{}
	}
	return &Index{dim: dim, docs: docs}, nil
}

// Dim returns the dimension of the indexed vectors.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the document count.
func (ix *Index) Len() int { return len(ix.docs) }

// Docs returns the documents in the order NewIndex was given them, as a
// read-only view.
func (ix *Index) Docs() []Doc { return ix.docs }

// checkDoc rejects what no store of dimension dim can hold: a vector of
// another dimension, or a zero vector (it has no direction; cosine against it
// is undefined).
func checkDoc(dim int, d Doc) error {
	if len(d.Vector) != dim {
		return fmt.Errorf("vectordb: vector dim %d, store dim %d", len(d.Vector), dim)
	}
	if norm(d.Vector) == 0 {
		return fmt.Errorf("vectordb: zero vector for doc %q", d.ID)
	}
	return nil
}

// Search returns the top-k documents by cosine similarity to the query. k
// larger than the index returns everything, sorted.
func (ix *Index) Search(query []float64, k int) ([]Match, error) {
	if len(query) != ix.dim {
		return nil, fmt.Errorf("vectordb: query dim %d, store dim %d", len(query), ix.dim)
	}
	qn := norm(query)
	if qn == 0 {
		return nil, fmt.Errorf("vectordb: zero query vector")
	}
	if k <= 0 {
		return nil, fmt.Errorf("vectordb: non-positive k %d", k)
	}
	matches := make([]Match, 0, len(ix.docs))
	for _, d := range ix.docs {
		matches = append(matches, Match{Doc: d, Score: dot(query, d.Vector) / (qn * norm(d.Vector))})
	}
	sort.SliceStable(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].Doc.ID < matches[j].Doc.ID
	})
	if k < len(matches) {
		matches = matches[:k]
	}
	return matches, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// Embed deterministically hashes text into a unit vector of the given
// dimension. It stands in for a real embedding model: identical texts map to
// identical vectors, and similar-prefix texts correlate, which is enough for
// the workflow plumbing and tests.
func Embed(text string, dim int) []float64 {
	v := make([]float64, dim)
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(text); i++ {
		h ^= uint64(text[i])
		h *= 1099511628211
		v[i%dim] += float64(int64(h%2001)-1000) / 1000
	}
	n := norm(v)
	if n == 0 {
		v[0] = 1
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}
