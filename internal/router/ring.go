// Package router is the horizontal scale-out tier: a consistent-hash ring
// maps tenants onto a set of in-process murakkabd nodes (each node is an
// api.Server), and a Router fronts the set with the same HTTP surface a
// single node exposes, calling the nodes' typed cores (Submit, Status,
// Cancel, Pool().Stats) directly: a routed request is decoded once, by the
// router, and encoded once. Job traffic routes by tenant,
// stats fan out and merge with the pool's monotonic-fold discipline, and
// node join/leave moves only the tenants the ring reassigns: a leave drains
// the departing node against a deadline, re-enters still-queued jobs on
// surviving nodes, and types anything that cannot finish as node_down.
package router

import (
	"sort"
	"strconv"
)

// ringPoint is one virtual node on the ring: a hash position owned by a
// physical node.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes and seeded placement.
// Each node contributes VNodes points, placed by hashing seed|name|index;
// a tenant maps to the first point clockwise from its own hash. With the
// same seed and membership, placement is identical across processes, and
// adding or removing a node moves only the tenants whose successor point
// belonged to that node — the minimal-disruption property the tests pin.
//
// Ring is not goroutine-safe; the Router guards it with its own mutex.
type Ring struct {
	vnodes int
	seed   int64
	points []ringPoint // sorted by (hash, node)
	nodes  []string    // sorted member names
}

// DefaultVNodes is the default virtual-node count per physical node: enough
// that tenant spread stays within ~±25% of fair share (see the balance
// property test) while keeping membership changes cheap.
const DefaultVNodes = 128

// NewRing returns an empty ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int, seed int64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, seed: seed}
}

// hash64 hashes the ring seed plus a label with FNV-1a, then finalizes with
// a SplitMix64-style mixer: FNV alone leaves short sequential labels
// ("n0#1", "n0#2", …) correlated in the high bits, which skews point
// placement badly; the finalizer's avalanche restores uniform spread.
func (r *Ring) hash64(label string, vnode int) uint64 {
	// hash/fnv's New64a, inlined: a lookup runs on every routed request, and
	// the hash object and the []byte copies were two allocations each time.
	h := uint64(14695981039346656037)
	add := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := 0; i < 64; i += 8 {
		add(byte(uint64(r.seed) >> i))
	}
	for i := 0; i < len(label); i++ {
		add(label[i])
	}
	if vnode >= 0 {
		add('#')
		var digits [20]byte
		for _, c := range strconv.AppendInt(digits[:0], int64(vnode), 10) {
			add(c)
		}
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finalizer (Steele et al.): a bijective avalanche
// over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a node's virtual points. It reports false if the node is
// already a member.
func (r *Ring) Add(name string) bool {
	i := sort.SearchStrings(r.nodes, name)
	if i < len(r.nodes) && r.nodes[i] == name {
		return false
	}
	r.nodes = append(r.nodes, "")
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = name
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: r.hash64(name, v), node: name})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return true
}

// Remove deletes a node's virtual points. It reports false if the node is
// not a member.
func (r *Ring) Remove(name string) bool {
	i := sort.SearchStrings(r.nodes, name)
	if i == len(r.nodes) || r.nodes[i] != name {
		return false
	}
	r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
	kept := r.points[:0]
	for _, pt := range r.points {
		if pt.node != name {
			kept = append(kept, pt)
		}
	}
	r.points = kept
	return true
}

// NodeFor maps a tenant to its owning node: the first virtual point
// clockwise from the tenant's hash. It reports false on an empty ring.
func (r *Ring) NodeFor(tenant string) (string, bool) {
	return r.NodeForWhere(tenant, nil)
}

// NodeForWhere maps a tenant to the first node clockwise from its hash that
// passes ok (nil accepts every node). The walk visits each distinct node at
// most once, in ring order, so a draining or unhealthy owner's tenants spill
// deterministically onto its clockwise successors. It reports false when no
// member passes.
func (r *Ring) NodeForWhere(tenant string, ok func(string) bool) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := r.hash64(tenant, -1)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if ok == nil {
		return r.points[start%len(r.points)].node, true
	}
	// Each distinct node is asked once, in ring order from the tenant's
	// position; rejected nodes are remembered (node counts are small, so a
	// linear scan beats a map here).
	tried := make([]string, 0, 8)
	for i := 0; i < len(r.points) && len(tried) < len(r.nodes); i++ {
		pt := r.points[(start+i)%len(r.points)]
		seen := false
		for _, name := range tried {
			if name == pt.node {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		if ok(pt.node) {
			return pt.node, true
		}
		tried = append(tried, pt.node)
	}
	return "", false
}
