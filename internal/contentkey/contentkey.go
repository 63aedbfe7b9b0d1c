// Package contentkey provides the injective encoding shared by every
// content-keyed cache in the repository (catalog/library fingerprints, the
// runtime's plan and decomposition caches): strings are length-prefixed and
// numbers semicolon-terminated, so concatenated fields can never be
// re-segmented into a different value sequence — no crafted name collides
// with another key. Keeping the contract in one leaf package means a format
// change cannot drift between producers.
package contentkey

import (
	"strconv"
	"strings"
)

// WriteString appends s as "<len>:<s>".
func WriteString(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// WriteFloat appends f in shortest round-trip form, ';'-terminated (';'
// cannot occur in a formatted number).
func WriteFloat(b *strings.Builder, f float64) {
	b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	b.WriteByte(';')
}

// WriteInt appends n ';'-terminated.
func WriteInt(b *strings.Builder, n int) {
	b.WriteString(strconv.Itoa(n))
	b.WriteByte(';')
}

// AppendString appends s as "<len>:<s>" to key and returns the extended
// slice. The Append* variants mirror the Write* ones but target a reusable
// []byte scratch buffer, so a hot path can rebuild a key with zero
// allocations and look it up with the no-alloc m[string(key)] map pattern.
func AppendString(key []byte, s string) []byte {
	key = strconv.AppendInt(key, int64(len(s)), 10)
	key = append(key, ':')
	return append(key, s...)
}

// AppendFloat appends f in shortest round-trip form, ';'-terminated.
func AppendFloat(key []byte, f float64) []byte {
	key = strconv.AppendFloat(key, f, 'g', -1, 64)
	return append(key, ';')
}

// AppendInt appends n ';'-terminated.
func AppendInt(key []byte, n int) []byte {
	key = strconv.AppendInt(key, int64(n), 10)
	return append(key, ';')
}

// Interner dedups the key strings the content-keyed caches are indexed by.
// Admission rebuilds the same job/plan/decomposition keys for every request
// of a given shape; interning materializes each distinct key string once and
// hands the canonical copy back on every later build, so steady-state key
// construction allocates nothing (the probe is a m[string(buf)] lookup,
// which Go compiles without a conversion allocation).
//
// An Interner is not goroutine-safe; each owner (one per scheduler loop or
// per plan-search worker) keeps its own.
type Interner struct {
	m     map[string]string
	limit int
	hits  uint64
	miss  uint64
}

// DefaultInternerLimit bounds how many distinct keys an interner retains
// before it resets. Distinct key shapes are few (per workflow kind ×
// capacity class), so the bound exists only to keep a pathological workload
// from growing the table without end.
const DefaultInternerLimit = 4096

// NewInterner returns an interner retaining at most limit distinct keys
// (<=0 means DefaultInternerLimit).
func NewInterner(limit int) *Interner {
	if limit <= 0 {
		limit = DefaultInternerLimit
	}
	// No size hint: short-lived runtimes (per-request testbeds) intern only
	// a handful of keys, and a hinted map eagerly allocates its bucket array.
	return &Interner{m: make(map[string]string), limit: limit}
}

// Intern returns the canonical string for key, materializing the string at
// most once per distinct key. When the table is full it resets rather than
// evicting — deterministic, and re-warming costs one allocation per live
// key.
func (in *Interner) Intern(key []byte) string {
	if s, ok := in.m[string(key)]; ok {
		in.hits++
		return s
	}
	in.miss++
	if len(in.m) >= in.limit {
		in.m = make(map[string]string)
	}
	s := string(key)
	in.m[s] = s
	return s
}

// Stats reports lifetime hit/miss counters (misses count distinct key
// materializations, including re-warming after a reset).
func (in *Interner) Stats() (hits, misses uint64) { return in.hits, in.miss }
