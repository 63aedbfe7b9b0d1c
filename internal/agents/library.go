package agents

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/contentkey"
	"repro/internal/dag"
)

// Library is the runtime's registry of implementations, "detailing their
// names, functionalities, and schemas" (§3.2 Task-to-Agent Mapping). The
// planner-LLM receives its summary as a system prompt; the optimizer
// enumerates its implementations per capability.
type Library struct {
	byName map[string]*Implementation
	byCap  map[Capability][]*Implementation
	// gen counts registrations, letting caches keyed on library content
	// (plan cache, shared profile stores) detect additions in O(1).
	gen int
	// promptCache memoizes SystemPrompt for promptGen == gen; the planner
	// renders the prompt on every decomposition, and the library rarely
	// changes after construction. fpCache does the same for Fingerprint,
	// which every testbed construction consults for the shared profile key.
	promptCache string
	promptGen   int
	fpCache     string
	fpGen       int
	// sortedByCap / capsCache memoize the sorted per-capability lists and the
	// sorted capability set per generation: every planner/optimizer pass walks
	// them, and re-sorting per call dominated library allocations.
	sortedByCap map[Capability][]*Implementation
	sortedGen   int
	capsCache   []Capability
	capsGen     int
	// borrowed marks a copy-on-write view: the maps above are shared with
	// the template (and possibly other views on other goroutines), so they
	// are read-only until the first registration materializes this library's
	// own maps (ensureOwned). Scalar memo fields are per-copy and stay
	// writable.
	borrowed bool
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{
		byName: make(map[string]*Implementation),
		byCap:  make(map[Capability][]*Implementation),
	}
}

// ensureOwned materializes a borrowed view's own maps before its first
// mutation, so the template (and sibling views on other goroutines) never
// observe a write. byCap slices are capacity-capped so a later append
// reallocates instead of growing into a shared backing array; the sorted
// memo is dropped and rebuilt lazily into a fresh map.
func (l *Library) ensureOwned() {
	if !l.borrowed {
		return
	}
	l.borrowed = false
	byName := make(map[string]*Implementation, len(l.byName)+1)
	for name, im := range l.byName {
		byName[name] = im
	}
	l.byName = byName
	byCap := make(map[Capability][]*Implementation, len(l.byCap)+1)
	for c, list := range l.byCap {
		byCap[c] = list[:len(list):len(list)]
	}
	l.byCap = byCap
	l.sortedByCap = nil
}

// Register adds an implementation. Duplicate names are an error.
func (l *Library) Register(im Implementation) error {
	if err := im.Validate(); err != nil {
		return err
	}
	l.ensureOwned()
	if _, dup := l.byName[im.Name]; dup {
		return fmt.Errorf("agents: duplicate implementation %q", im.Name)
	}
	cp := im
	l.byName[im.Name] = &cp
	l.byCap[im.Capability] = append(l.byCap[im.Capability], &cp)
	l.gen++
	return nil
}

// Gen returns the library's registration generation.
func (l *Library) Gen() int { return l.gen }

// Fingerprint renders the library's full content deterministically and
// injectively: string fields are length-prefixed and numbers
// semicolon-terminated, so no two distinct libraries share a fingerprint
// even with adversarial names — the key contract behind SharedProfiles.
// Every Implementation field must be serialized here; a field added to the
// struct without a line below silently escapes content keying. The
// rendering is memoized until the next registration.
func (l *Library) Fingerprint() string {
	if l.fpCache != "" && l.fpGen == l.gen {
		return l.fpCache
	}
	var b strings.Builder
	str := func(s string) { contentkey.WriteString(&b, s) }
	num := func(f float64) { contentkey.WriteFloat(&b, f) }
	for _, c := range l.Capabilities() {
		for _, im := range l.byCapabilitySorted(c) {
			str(im.Name)
			str(string(im.Capability))
			str(string(im.Kind))
			num(im.ParamsB)
			num(im.Quality)
			p := im.Perf
			num(p.BaseS)
			num(p.GPUUnitS)
			num(p.CPUCoreUnitS)
			num(p.GPUParallelExp)
			num(p.CPUParallelExp)
			num(p.GPUIntensity)
			num(p.CPUIntensity)
			str(string(p.RefGPU))
			contentkey.WriteInt(&b, p.MinGPUs)
			contentkey.WriteInt(&b, p.MaxGPUs)
			contentkey.WriteInt(&b, p.MinCores)
			contentkey.WriteInt(&b, p.MaxCores)
			for _, a := range im.Args {
				str(a.Name)
				str(a.Type)
				if a.Required {
					b.WriteByte('!')
				}
				b.WriteByte(';')
			}
			b.WriteByte('|')
		}
	}
	l.fpCache = b.String()
	l.fpGen = l.gen
	return l.fpCache
}

// MustRegister is Register for construction code.
func (l *Library) MustRegister(im Implementation) {
	if err := l.Register(im); err != nil {
		panic(err)
	}
}

// Get returns an implementation by name. The returned value is a defensive
// copy (Args included): registered implementations are immutable, which is
// what lets the content-keyed caches (Fingerprint, SystemPrompt,
// SharedProfiles, the runtime's plan cache) trust the registration
// generation. Mutating the copy does not change the library; re-register
// under a new name instead.
func (l *Library) Get(name string) (*Implementation, bool) {
	im, ok := l.byName[name]
	if !ok {
		return nil, false
	}
	return im.clone(), true
}

// Lookup returns the registry's own pointer for an implementation — no
// defensive copy. It exists for hot read-only paths (the runtime's stage
// dispatch and engine-acquisition checks) where Get's per-call clone shows
// up in allocation profiles. The contract is strict: callers must treat the
// result (Args included) as immutable; use Get when a mutable copy is
// needed.
func (l *Library) Lookup(name string) (*Implementation, bool) {
	im, ok := l.byName[name]
	return im, ok
}

// clone deep-copies an implementation (the Args slice gets its own backing
// array so no mutation path back into the registry exists).
func (im *Implementation) clone() *Implementation {
	cp := *im
	if len(im.Args) > 0 {
		cp.Args = append([]ArgSpec(nil), im.Args...)
	}
	return &cp
}

// ByCapability returns implementations providing a capability, sorted by
// name for determinism. Like Get, the elements are defensive copies.
func (l *Library) ByCapability(c Capability) []*Implementation {
	raw := l.byCapabilitySorted(c)
	list := make([]*Implementation, len(raw))
	for i, im := range raw {
		list[i] = im.clone()
	}
	return list
}

// byCapabilitySorted returns the registry's own pointers sorted by name —
// for internal read-only iteration that must not pay the defensive clone.
// The result is memoized per registration generation.
func (l *Library) byCapabilitySorted(c Capability) []*Implementation {
	if l.sortedByCap != nil && l.sortedGen == l.gen {
		if list, ok := l.sortedByCap[c]; ok {
			return list
		}
	}
	if l.borrowed {
		// The memo map is shared (possibly across goroutines); compute
		// without caching. The template behind DefaultLibrary pre-warms
		// every registered capability, so this path only runs for
		// capabilities the library does not provide.
		return sortCapList(l.byCap[c])
	}
	if l.sortedByCap == nil || l.sortedGen != l.gen {
		l.sortedByCap = make(map[Capability][]*Implementation, len(l.byCap))
		l.sortedGen = l.gen
	}
	list := sortCapList(l.byCap[c])
	l.sortedByCap[c] = list
	return list
}

func sortCapList(raw []*Implementation) []*Implementation {
	list := make([]*Implementation, len(raw))
	copy(list, raw)
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	return list
}

// Implementations returns the registry's own implementation pointers for a
// capability, sorted by name. The returned slice and the pointed-to values
// are shared and must be treated as read-only — this is the no-copy fast
// path for read-heavy consumers (the optimizer's per-plan enumeration);
// anything that wants to mutate must use Get/ByCapability.
func (l *Library) Implementations(c Capability) []*Implementation {
	return l.byCapabilitySorted(c)
}

// HasCapability reports whether at least one implementation provides c,
// without the copying ByCapability does.
func (l *Library) HasCapability(c Capability) bool { return len(l.byCap[c]) > 0 }

// Capabilities returns the capabilities with at least one implementation,
// sorted. The returned slice is a shared memoized view; callers must not
// modify it.
func (l *Library) Capabilities() []Capability {
	if l.capsCache != nil && l.capsGen == l.gen {
		return l.capsCache
	}
	out := make([]Capability, 0, len(l.byCap))
	for c := range l.byCap {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	l.capsCache, l.capsGen = out, l.gen
	return out
}

// copyShared returns a copy-on-write view of the library: one struct copy
// sharing every map, slice and memoized view (fingerprint, prompt, sorted
// lists) with the template. Reads are safe from any number of views on any
// goroutine — the template behind DefaultLibrary is pre-warmed so read paths
// never write the shared memo maps. The first Register on a view
// materializes its own maps (ensureOwned), so the template and sibling views
// stay untouched.
func (l *Library) copyShared() *Library {
	cp := *l
	cp.borrowed = true
	return &cp
}

// Len returns the implementation count.
func (l *Library) Len() int { return len(l.byName) }

// SystemPrompt renders the library as the agent-catalog system prompt the
// paper describes feeding the orchestrator LLM ("Murakkab provides the agent
// library via the system prompt"). The rendering is memoized until the next
// registration.
func (l *Library) SystemPrompt() string {
	if l.promptCache != "" && l.promptGen == l.gen {
		return l.promptCache
	}
	var b strings.Builder
	b.WriteString("You are an orchestrator that decomposes jobs into tasks and assigns agents.\n")
	b.WriteString("Available agents:\n")
	for _, c := range l.Capabilities() {
		for _, im := range l.byCapabilitySorted(c) {
			fmt.Fprintf(&b, "- %s (%s, %s): capability=%s", im.Name, im.Kind, paramsLabel(im.ParamsB), c)
			if len(im.Args) > 0 {
				names := make([]string, len(im.Args))
				for i, a := range im.Args {
					suffix := ""
					if a.Required {
						suffix = "*"
					}
					names[i] = a.Name + ":" + a.Type + suffix
				}
				fmt.Fprintf(&b, " args(%s)", strings.Join(names, ", "))
			}
			b.WriteString("\n")
		}
	}
	l.promptCache = b.String()
	l.promptGen = l.gen
	return l.promptCache
}

func paramsLabel(b float64) string {
	if b == 0 {
		return "tool"
	}
	return strconv.FormatFloat(b, 'g', 3, 64) + "B params"
}

// ToolCall is an executable agent invocation the planner-LLM generates, e.g.
// FrameExtractor(start_time=0, end_time=60s, num_frames=10, file="cats.mov").
// Args alternates name, value: the planner cuts it from a slab, as it does
// node metadata, because a map per generated call was the largest single
// allocation site of a job that misses every cache.
type ToolCall struct {
	Agent string
	Args  dag.Meta
}

// String renders the call in function-call syntax (deterministic arg order).
func (tc ToolCall) String() string {
	at := make([]int, 0, len(tc.Args)/2)
	for i := 0; i+1 < len(tc.Args); i += 2 {
		at = append(at, i)
	}
	sort.Slice(at, func(a, b int) bool { return tc.Args[at[a]] < tc.Args[at[b]] })
	parts := make([]string, len(at))
	for k, i := range at {
		parts[k] = fmt.Sprintf("%s=%q", tc.Args[i], tc.Args[i+1])
	}
	return fmt.Sprintf("%s(%s)", tc.Agent, strings.Join(parts, ", "))
}

// ValidateCall checks a tool call against the named agent's schema:
// the agent must exist, required args must be present, no unknown args, and
// typed args must parse.
func (l *Library) ValidateCall(tc ToolCall) error {
	im, ok := l.byName[tc.Agent]
	if !ok {
		return fmt.Errorf("agents: tool call to unknown agent %q", tc.Agent)
	}
	known := map[string]ArgSpec{}
	for _, a := range im.Args {
		known[a.Name] = a
		if a.Required {
			if _, present := tc.Args.Get(a.Name); !present {
				return fmt.Errorf("agents: call to %s missing required arg %q", tc.Agent, a.Name)
			}
		}
	}
	for i := 0; i+1 < len(tc.Args); i += 2 {
		name, val := tc.Args[i], tc.Args[i+1]
		spec, ok := known[name]
		if !ok {
			return fmt.Errorf("agents: call to %s has unknown arg %q", tc.Agent, name)
		}
		switch spec.Type {
		case "int":
			if _, err := strconv.Atoi(val); err != nil {
				return fmt.Errorf("agents: call to %s arg %q = %q is not an int", tc.Agent, name, val)
			}
		case "float":
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("agents: call to %s arg %q = %q is not a float", tc.Agent, name, val)
			}
		case "string", "path":
			// any value accepted
		default:
			return fmt.Errorf("agents: schema of %s has unknown type %q", tc.Agent, spec.Type)
		}
	}
	return nil
}
