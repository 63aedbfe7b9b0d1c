package router

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
)

// fnvHash64 is Ring.hash64 as it stood on hash/fnv, before FNV-1a was inlined.
func fnvHash64(seed int64, label string, vnode int) uint64 {
	h := fnv.New64a()
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], uint64(seed))
	h.Write(sb[:])
	h.Write([]byte(label))
	if vnode >= 0 {
		h.Write([]byte("#"))
		h.Write([]byte(strconv.Itoa(vnode)))
	}
	return mix64(h.Sum64())
}

// TestRingHashMatchesHashFNV: the inlined FNV-1a puts every point and every
// tenant where hash/fnv did, and a lookup no longer allocates.
func TestRingHashMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		r := NewRing(0, rng.Int63()-rng.Int63())
		for _, vnode := range []int{-1, 0, rng.Intn(1 << 20)} {
			if got, want := r.hash64(string(b), vnode), fnvHash64(r.seed, string(b), vnode); got != want {
				t.Fatalf("hash64(seed %d, %q, %d) = %#x, hash/fnv %#x", r.seed, b, vnode, got, want)
			}
		}
	}
	r := ringWith(0, 42, nodeNames(3)...)
	if allocs := testing.AllocsPerRun(100, func() { r.NodeFor("tenant-17") }); allocs != 0 {
		t.Errorf("NodeFor allocates %.0f times per lookup", allocs)
	}
}

func ringWith(vnodes int, seed int64, nodes ...string) *Ring {
	r := NewRing(vnodes, seed)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%d", i)
	}
	return out
}

// assign maps numbered tenants onto the ring.
func assign(r *Ring, tenants int) map[string]string {
	out := make(map[string]string, tenants)
	for i := 0; i < tenants; i++ {
		t := fmt.Sprintf("tenant-%d", i)
		n, ok := r.NodeFor(t)
		if !ok {
			panic("empty ring")
		}
		out[t] = n
	}
	return out
}

// TestRingBalancedSpread pins the balance property: at 10k tenants, every
// node's share stays within [0.5x, 1.5x] of fair share across node counts
// and seeds.
func TestRingBalancedSpread(t *testing.T) {
	const tenants = 10000
	for _, nodes := range []int{2, 3, 5, 8} {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("nodes=%d/seed=%d", nodes, seed), func(t *testing.T) {
				r := ringWith(0, seed, nodeNames(nodes)...)
				load := make(map[string]int)
				for _, owner := range assign(r, tenants) {
					load[owner]++
				}
				if len(load) != nodes {
					t.Fatalf("only %d of %d nodes received tenants: %v", len(load), nodes, load)
				}
				mean := float64(tenants) / float64(nodes)
				for name, got := range load {
					if f := float64(got); f > 1.5*mean || f < 0.5*mean {
						t.Errorf("node %s holds %d tenants, outside [%.0f, %.0f] (mean %.0f): %v",
							name, got, 0.5*mean, 1.5*mean, mean, load)
					}
				}
			})
		}
	}
}

// TestRingMinimalDisruptionOnAdd pins consistent hashing's defining
// property: adding one node moves tenants only onto the new node — no
// tenant is shuffled between surviving nodes.
func TestRingMinimalDisruptionOnAdd(t *testing.T) {
	const tenants = 10000
	for _, tc := range []struct {
		nodes int
		seed  int64
	}{{2, 1}, {3, 7}, {5, 42}} {
		t.Run(fmt.Sprintf("nodes=%d/seed=%d", tc.nodes, tc.seed), func(t *testing.T) {
			r := ringWith(0, tc.seed, nodeNames(tc.nodes)...)
			before := assign(r, tenants)
			newNode := fmt.Sprintf("n%d", tc.nodes)
			r.Add(newNode)
			after := assign(r, tenants)
			moved := 0
			for tenant, owner := range after {
				if owner != before[tenant] {
					moved++
					if owner != newNode {
						t.Fatalf("tenant %s moved %s -> %s, not to the new node %s",
							tenant, before[tenant], owner, newNode)
					}
				}
			}
			// The new node must take roughly its fair share (1/(n+1)).
			fair := float64(tenants) / float64(tc.nodes+1)
			if f := float64(moved); f < 0.5*fair || f > 1.5*fair {
				t.Fatalf("add moved %d tenants, want within [%.0f, %.0f]", moved, 0.5*fair, 1.5*fair)
			}
		})
	}
}

// TestRingMinimalDisruptionOnRemove: removing one node moves exactly that
// node's tenants and nobody else.
func TestRingMinimalDisruptionOnRemove(t *testing.T) {
	const tenants = 10000
	for _, tc := range []struct {
		nodes int
		seed  int64
	}{{3, 1}, {4, 7}, {6, 42}} {
		t.Run(fmt.Sprintf("nodes=%d/seed=%d", tc.nodes, tc.seed), func(t *testing.T) {
			r := ringWith(0, tc.seed, nodeNames(tc.nodes)...)
			before := assign(r, tenants)
			const victim = "n0"
			r.Remove(victim)
			after := assign(r, tenants)
			for tenant, owner := range after {
				was := before[tenant]
				if was == victim {
					if owner == victim {
						t.Fatalf("tenant %s still maps to removed node", tenant)
					}
					continue
				}
				if owner != was {
					t.Fatalf("tenant %s moved %s -> %s though %s was unaffected by the removal",
						tenant, was, owner, was)
				}
			}
		})
	}
}

// TestRingSeededDeterminism: placement is a pure function of (seed,
// membership) — insertion order is irrelevant, and different seeds give
// different placements.
func TestRingSeededDeterminism(t *testing.T) {
	a := ringWith(0, 42, "n0", "n1", "n2")
	b := ringWith(0, 42, "n2", "n0", "n1")
	assignA, assignB := assign(a, 1000), assign(b, 1000)
	for tenant, owner := range assignA {
		if assignB[tenant] != owner {
			t.Fatalf("tenant %s: order-dependent placement %s vs %s", tenant, owner, assignB[tenant])
		}
	}
	c := ringWith(0, 43, "n0", "n1", "n2")
	diff := 0
	for tenant, owner := range assign(c, 1000) {
		if assignA[tenant] != owner {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed change did not move any tenant — placement ignores the seed")
	}
}

// TestRingNodeForWhere: a rejected owner's tenants spill deterministically
// to a live successor; rejecting everyone reports false.
func TestRingNodeForWhere(t *testing.T) {
	r := ringWith(0, 7, "n0", "n1", "n2")
	for i := 0; i < 200; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		owner, _ := r.NodeFor(tenant)
		alt1, ok := r.NodeForWhere(tenant, func(n string) bool { return n != owner })
		if !ok || alt1 == owner {
			t.Fatalf("tenant %s: spill failed (owner %s, got %s ok=%v)", tenant, owner, alt1, ok)
		}
		alt2, ok := r.NodeForWhere(tenant, func(n string) bool { return n != owner })
		if !ok || alt2 != alt1 {
			t.Fatalf("tenant %s: spill not deterministic: %s vs %s", tenant, alt1, alt2)
		}
		if _, ok := r.NodeForWhere(tenant, func(string) bool { return false }); ok {
			t.Fatal("NodeForWhere accepted with all nodes rejected")
		}
	}
	if _, ok := NewRing(0, 1).NodeFor("x"); ok {
		t.Fatal("empty ring returned a node")
	}
}
