// Package vectordb is an in-memory vector store with cosine-similarity
// search — the substrate behind the paper's §4 setup, where scene-summary
// embeddings are inserted into a VectorDB for question answering. It is a
// real (if small) index, not a stub: insertions validate dimensions, search
// returns exact top-k, and namespaces isolate workflows. A DB is the store a
// pipeline inserts into as it goes (the imperative baseline); an Index is a
// finished set of documents built in one step, which is how the runtime hands
// out an execution's embeddings.
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

// DB is a namespaced vector store. Not goroutine-safe: the simulation is
// single-threaded.
type DB struct {
	dim        int
	namespaces map[string][]Doc
	inserted   int
}

// New creates a store for vectors of the given dimension.
func New(dim int) *DB {
	if dim <= 0 {
		panic(fmt.Sprintf("vectordb: non-positive dimension %d", dim))
	}
	return &DB{dim: dim, namespaces: make(map[string][]Doc)}
}

// Dim returns the configured dimension.
func (db *DB) Dim() int { return db.dim }

// Len returns the document count in a namespace.
func (db *DB) Len(namespace string) int { return len(db.namespaces[namespace]) }

// TotalInserted returns lifetime insertions (for overhead accounting).
func (db *DB) TotalInserted() int { return db.inserted }

// Insert stores a document. Dimension mismatches and zero vectors are
// errors (a zero vector has no direction; cosine against it is undefined).
func (db *DB) Insert(namespace string, d Doc) error {
	if err := checkDoc(db.dim, d); err != nil {
		return err
	}
	for _, existing := range db.namespaces[namespace] {
		if existing.ID == d.ID {
			return fmt.Errorf("vectordb: duplicate doc %q in namespace %q", d.ID, namespace)
		}
	}
	db.namespaces[namespace] = append(db.namespaces[namespace], d)
	db.inserted++
	return nil
}

// Search returns the top-k documents by cosine similarity to the query.
// k larger than the namespace returns everything, sorted.
func (db *DB) Search(namespace string, query []float64, k int) ([]Match, error) {
	return search(db.dim, db.namespaces[namespace], query, k)
}

// Drop removes a namespace entirely.
func (db *DB) Drop(namespace string) { delete(db.namespaces, namespace) }

// Index is a fixed, ordered set of documents with the store's search: what a
// namespace holds, owned by whoever built it instead of by a DB.
type Index struct {
	dim  int
	docs []Doc
}

// NewIndex checks docs the way Insert would have, one at a time — dimension,
// zero vector, and an ID no earlier document has, looked up in a set — and
// returns the index over them. It keeps docs; the caller must not reuse it.
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

// Search returns the top-k documents by cosine similarity to the query, like
// DB.Search over one namespace.
func (ix *Index) Search(query []float64, k int) ([]Match, error) {
	return search(ix.dim, ix.docs, query, k)
}

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

func search(dim int, docs []Doc, query []float64, k int) ([]Match, error) {
	if len(query) != dim {
		return nil, fmt.Errorf("vectordb: query dim %d, store dim %d", len(query), dim)
	}
	qn := norm(query)
	if qn == 0 {
		return nil, fmt.Errorf("vectordb: zero query vector")
	}
	if k <= 0 {
		return nil, fmt.Errorf("vectordb: non-positive k %d", k)
	}
	matches := make([]Match, 0, len(docs))
	for _, d := range docs {
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
