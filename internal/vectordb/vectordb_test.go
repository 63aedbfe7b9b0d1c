package vectordb

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// index builds an Index over docs or fails the test.
func index(t *testing.T, dim int, docs ...Doc) *Index {
	t.Helper()
	ix, err := NewIndex(dim, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestInsertAndSearch(t *testing.T) {
	ix := index(t, 3,
		Doc{ID: "x", Vector: []float64{1, 0, 0}, Text: "x axis"},
		Doc{ID: "y", Vector: []float64{0, 1, 0}, Text: "y axis"},
		Doc{ID: "xy", Vector: []float64{1, 1, 0}, Text: "diagonal"},
	)
	got, err := ix.Search([]float64{1, 0.1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d matches, want 2", len(got))
	}
	if got[0].Doc.ID != "x" {
		t.Fatalf("best match = %s, want x", got[0].Doc.ID)
	}
	if got[0].Score < got[1].Score {
		t.Fatal("matches not sorted by score")
	}
}

func TestSearchKLargerThanStore(t *testing.T) {
	ix := index(t, 2, Doc{ID: "a", Vector: []float64{1, 0}})
	got, err := ix.Search([]float64{1, 0}, 10)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	if math.Abs(got[0].Score-1) > 1e-12 {
		t.Fatalf("self-similarity = %v, want 1", got[0].Score)
	}
}

// TestNamespaceIsolation: an index is its builder's own namespace — it holds
// what it was given and nothing another index holds.
func TestNamespaceIsolation(t *testing.T) {
	a := index(t, 2, Doc{ID: "d", Vector: []float64{1, 0}})
	b := index(t, 2)
	got, _ := b.Search([]float64{1, 0}, 5)
	if len(got) != 0 {
		t.Fatal("index b sees index a's docs")
	}
	if a.Len() != 1 || b.Len() != 0 {
		t.Fatal("Len wrong")
	}
}

func TestInsertErrors(t *testing.T) {
	if _, err := NewIndex(2, []Doc{{ID: "bad", Vector: []float64{1}}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewIndex(2, []Doc{{ID: "zero", Vector: []float64{0, 0}}}); err == nil {
		t.Error("zero vector accepted")
	}
	if _, err := NewIndex(2, []Doc{{ID: "dup", Vector: []float64{1, 0}}, {ID: "dup", Vector: []float64{0, 1}}}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestSearchErrors(t *testing.T) {
	ix := index(t, 2)
	if _, err := ix.Search([]float64{1}, 1); err == nil {
		t.Error("query dim mismatch accepted")
	}
	if _, err := ix.Search([]float64{0, 0}, 1); err == nil {
		t.Error("zero query accepted")
	}
	if _, err := ix.Search([]float64{1, 0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestEmbedDeterministicUnit(t *testing.T) {
	a := Embed("the quick brown fox", 16)
	b := Embed("the quick brown fox", 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Embed not deterministic")
		}
	}
	if math.Abs(norm(a)-1) > 1e-9 {
		t.Fatalf("Embed norm = %v, want 1", norm(a))
	}
	c := Embed("a completely different sentence", 16)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different texts produced identical embeddings")
	}
}

func TestEmbedRetrieval(t *testing.T) {
	// A document embedded and searched by its own text must rank first.
	texts := []string{
		"scene 0: cats playing with yarn",
		"scene 1: formula one cars racing",
		"scene 2: a chef cooking pasta",
	}
	var docs []Doc
	for i, txt := range texts {
		docs = append(docs, Doc{ID: fmt.Sprint(i), Vector: Embed(txt, 32), Text: txt})
	}
	ix := index(t, 32, docs...)
	for i, txt := range texts {
		got, err := ix.Search(Embed(txt, 32), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Doc.ID != fmt.Sprint(i) {
			t.Fatalf("query %q returned doc %s, want %d", txt, got[0].Doc.ID, i)
		}
	}
}

// Property: scores are within [-1, 1] (cosine bounds) for arbitrary stored
// and queried vectors.
func TestPropertyCosineBounds(t *testing.T) {
	f := func(raw []int8, q1, q2, q3 int8) bool {
		var docs []Doc
		for i := 0; i+2 < len(raw); i += 3 {
			v := []float64{float64(raw[i]), float64(raw[i+1]), float64(raw[i+2])}
			if norm(v) == 0 {
				continue
			}
			docs = append(docs, Doc{ID: fmt.Sprint(i), Vector: v})
		}
		ix, err := NewIndex(3, docs)
		if err != nil {
			return false
		}
		q := []float64{float64(q1), float64(q2), float64(q3)}
		if norm(q) == 0 {
			return true
		}
		got, err := ix.Search(q, 1000)
		if err != nil {
			return false
		}
		for _, m := range got {
			if m.Score < -1-1e-9 || m.Score > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
