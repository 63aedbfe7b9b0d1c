package planner

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/dag"
	"repro/internal/workflow"
	"repro/internal/workload"
)

func videoJob() workflow.Job {
	return workflow.Job{
		Description: "List objects shown/mentioned in the videos",
		Inputs: []workflow.Input{
			workflow.VideoInput("cats.mov", 240, 30, 24),
			workflow.VideoInput("formula_1.mov", 240, 30, 24),
		},
		Tasks: []string{
			"Extract frames from each video",
			"Run speech-to-text on all scenes",
			"Detect objects in the frames",
		},
		Constraint: workflow.MinCost,
	}
}

func newPlanner() *Planner { return New(agents.DefaultLibrary()) }

func TestDecomposeVideoUnderstanding(t *testing.T) {
	res, err := newPlanner().Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	if res.Template != "video-understanding" {
		t.Fatalf("template = %q", res.Template)
	}
	// 2 videos × 8 scenes × 5 tasks.
	if res.Graph.Len() != 80 {
		t.Fatalf("DAG has %d nodes, want 80", res.Graph.Len())
	}
	if !res.Graph.Frozen() {
		t.Fatal("graph not frozen")
	}
	cw := res.Graph.CapabilityWork()
	if cw[string(agents.CapSpeechToText)] != 480 {
		t.Fatalf("STT work = %v, want 480 audio-seconds", cw[string(agents.CapSpeechToText)])
	}
	if cw[string(agents.CapFrameExtraction)] != 2*8*24 {
		t.Fatalf("extraction work = %v, want 384 frames", cw[string(agents.CapFrameExtraction)])
	}
}

func TestVideoDAGDependencies(t *testing.T) {
	res, err := newPlanner().Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	// STT has no predecessors (it is the root dependency of later stages).
	if got := g.Predecessors("stt_v0_s0"); len(got) != 0 {
		t.Fatalf("stt predecessors = %v, want none", got)
	}
	// Summarize depends on both stt and detect.
	preds := g.Predecessors("sum_v0_s0")
	if len(preds) != 2 {
		t.Fatalf("summarize predecessors = %v, want [det stt]", preds)
	}
	// Embedding depends on summarize.
	if got := g.Predecessors("emb_v0_s0"); len(got) != 1 || got[0] != "sum_v0_s0" {
		t.Fatalf("embed predecessors = %v", got)
	}
	// Critical path runs through STT or extraction into summarize+embed.
	path, _ := g.CriticalPath()
	last := path[len(path)-1]
	if !strings.HasPrefix(string(last), "emb_") {
		t.Fatalf("critical path ends at %s, want an embedding node", last)
	}
}

func TestDecomposeRecordsReActTrace(t *testing.T) {
	res, err := newPlanner().Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace()) < 3 {
		t.Fatalf("trace has %d steps, want >= 3", len(res.Trace()))
	}
	var foundSTT bool
	for _, s := range res.Trace() {
		if strings.Contains(s.Thought, "Speech-to-Text is the main dependency") {
			foundSTT = true
		}
		if s.Action == "" || s.Thought == "" {
			t.Fatalf("incomplete ReAct step %+v", s)
		}
	}
	if !foundSTT {
		t.Fatal("trace missing the paper's STT-dependency observation")
	}
}

func TestPlanningQueriesSmall(t *testing.T) {
	res, err := newPlanner().Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) < 2 {
		t.Fatalf("queries = %d, want >= 2 (decompose + tool calls)", len(res.Queries))
	}
	prompt, output := res.TotalPlanningTokens()
	if prompt <= 0 || output <= 0 {
		t.Fatal("planning token counts not positive")
	}
	// §3.3(b): short input, short output queries.
	if output > 1000 {
		t.Fatalf("planning output tokens = %d, want short (<1000)", output)
	}
}

func TestDecomposeNewsfeed(t *testing.T) {
	job := workflow.Job{
		Description: "Generate social media newsfeed for Alice",
		Inputs: []workflow.Input{
			{Name: "alice", Kind: workflow.InputUser, Attrs: map[string]float64{}},
			{Name: "f1", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
			{Name: "cats", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
			{Name: "cooking", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
		},
		Constraint: workflow.MinLatency,
	}
	res, err := newPlanner().Decompose(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Template != "newsfeed" {
		t.Fatalf("template = %q", res.Template)
	}
	// 3 searches + rank + generate + sentiment.
	if res.Graph.Len() != 6 {
		t.Fatalf("nodes = %d, want 6", res.Graph.Len())
	}
	if got := res.Graph.Predecessors("rank"); len(got) != 3 {
		t.Fatalf("rank fan-in = %d, want 3", len(got))
	}
	if got := res.Graph.Successors("generate"); len(got) != 1 || got[0] != "sentiment" {
		t.Fatalf("generate successors = %v", got)
	}
}

func TestDecomposeDocQA(t *testing.T) {
	job := workflow.Job{
		Description: "Answer questions about the contracts",
		Inputs: []workflow.Input{
			{Name: "a.pdf", Kind: workflow.InputDoc, Attrs: map[string]float64{"tokens": 1000}},
			{Name: "b.pdf", Kind: workflow.InputDoc, Attrs: map[string]float64{"tokens": 500}},
		},
		Constraint: workflow.MaxQuality,
	}
	res, err := newPlanner().Decompose(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Template != "document-qa" {
		t.Fatalf("template = %q", res.Template)
	}
	if got := res.Graph.Predecessors("answer"); len(got) != 2 {
		t.Fatalf("answer fan-in = %d, want 2", len(got))
	}
}

func TestHintChainFallback(t *testing.T) {
	job := workflow.Job{
		Description: "Process the recordings", // matches no template
		Inputs: []workflow.Input{
			{Name: "rec1", Kind: workflow.InputText, Attrs: map[string]float64{"duration_s": 120}},
			{Name: "rec2", Kind: workflow.InputText, Attrs: map[string]float64{"duration_s": 60}},
		},
		Tasks: []string{
			"Run speech-to-text on the audio",
			"Summarize the transcript",
		},
		Constraint: workflow.MinCost,
	}
	res, err := newPlanner().Decompose(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Template != "hint-chain" {
		t.Fatalf("template = %q", res.Template)
	}
	// 2 hints × 2 inputs, chained per input.
	if res.Graph.Len() != 4 {
		t.Fatalf("nodes = %d, want 4", res.Graph.Len())
	}
	if got := res.Graph.Predecessors("t1_i0"); len(got) != 1 || got[0] != "t0_i0" {
		t.Fatalf("chain broken: %v", got)
	}
}

func TestUndeconposableJobErrors(t *testing.T) {
	// The error quotes the description — all of a short one, a bounded
	// prefix (cut at a rune boundary) of a long one: the message goes back
	// on the wire and into the job record, so it must not scale with input.
	for _, tc := range []struct{ description, quoted string }{
		{"Do something wonderful", `cannot decompose job "Do something wonderful": no template`},
		{strings.Repeat("é", 100_000), `cannot decompose job "` + strings.Repeat("é", 64) + `"… (200000 bytes): no template`},
		{"x" + strings.Repeat("é", 100_000), `cannot decompose job "x` + strings.Repeat("é", 63) + `"… (200001 bytes): no template`},
	} {
		job := workflow.Job{
			Description: tc.description,
			Inputs:      []workflow.Input{{Name: "x", Kind: workflow.InputText}},
			Constraint:  workflow.MinCost,
		}
		_, err := newPlanner().Decompose(job)
		if err == nil {
			t.Fatal("undeconposable job accepted")
		}
		if !strings.Contains(err.Error(), tc.quoted) {
			t.Fatalf("error %.200q does not contain %.200q", err.Error(), tc.quoted)
		}
	}
}

func TestUnknownHintErrors(t *testing.T) {
	job := workflow.Job{
		Description: "Process things",
		Inputs:      []workflow.Input{{Name: "x", Kind: workflow.InputText}},
		Tasks:       []string{"Perform quantum chromodynamics"},
		Constraint:  workflow.MinCost,
	}
	if _, err := newPlanner().Decompose(job); err == nil {
		t.Fatal("unmappable hint accepted")
	}
}

func TestInvalidJobRejected(t *testing.T) {
	if _, err := newPlanner().Decompose(workflow.Job{}); err == nil {
		t.Fatal("empty job accepted")
	}
}

func TestToolCallGeneration(t *testing.T) {
	p := newPlanner()
	res, err := p.Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	node, _ := res.Graph.Node("ext_v0_s0")
	tc, err := p.ToolCallFor(node, agents.ImplOpenCV)
	if err != nil {
		t.Fatal(err)
	}
	if file, _ := tc.Args.Get("file"); file != "cats.mov" {
		t.Fatalf("tool call file = %q, want cats.mov", file)
	}
	if frames, _ := tc.Args.Get("num_frames"); frames != "24" {
		t.Fatalf("num_frames = %q", frames)
	}
	// The paper's example shape: FrameExtractor(..., file="cats.mov").
	if !strings.Contains(tc.String(), `file="cats.mov"`) {
		t.Fatalf("rendered call = %s", tc.String())
	}
}

func TestToolCallForEveryNode(t *testing.T) {
	p := newPlanner()
	lib := agents.DefaultLibrary()
	res, err := p.Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Graph.Nodes() {
		impls := lib.ByCapability(agents.Capability(n.Capability))
		if len(impls) == 0 {
			t.Fatalf("no implementation for %s", n.Capability)
		}
		if _, err := p.ToolCallFor(n, impls[0].Name); err != nil {
			t.Fatalf("tool call for %s via %s: %v", n.ID, impls[0].Name, err)
		}
	}
}

// ToolCallAt answers from the decomposition's per-node slot while the
// implementation and the library generation are the ones it was generated
// under, and generates again — overwriting the slot — when either moves.
func TestToolCallAtMemoizesPerNode(t *testing.T) {
	lib := agents.DefaultLibrary()
	p := New(lib)
	res, err := p.Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Graph.Nodes() {
		impls := lib.ByCapability(agents.Capability(n.Capability))
		want, err := p.ToolCallFor(n, impls[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ToolCallAt(res, i, impls[0].Name)
		if err != nil || got.String() != want.String() {
			t.Fatalf("node %d: ToolCallAt = %s, %v; ToolCallFor = %s", i, got.String(), err, want.String())
		}
	}
	stt := slices.IndexFunc(res.Graph.Nodes(), func(n *dag.Node) bool { return n.Capability == string(agents.CapSpeechToText) })
	impls := lib.ByCapability(agents.CapSpeechToText)
	if len(impls) < 2 {
		t.Fatal("need two speech-to-text implementations")
	}
	a, b := impls[0].Name, impls[1].Name
	first, _ := p.ToolCallAt(res, stt, a)
	if got := testing.AllocsPerRun(100, func() {
		if again, err := p.ToolCallAt(res, stt, a); err != nil || &again.Args[0] != &first.Args[0] {
			t.Fatal("a repeated call was generated again")
		}
	}); got != 0 {
		t.Fatalf("a memoized ToolCallAt allocates %.0f", got)
	}
	other, err := p.ToolCallAt(res, stt, b)
	if err != nil || other.Agent != b {
		t.Fatalf("after a rebind: agent %q, %v; want %q", other.Agent, err, b)
	}
	if back, _ := p.ToolCallAt(res, stt, a); back.Agent != a || &back.Args[0] == &first.Args[0] {
		t.Fatal("one slot per node: going back to the first implementation must generate again")
	}
	if _, err := p.ToolCallAt(res, stt, "ghost"); err == nil {
		t.Fatal("unknown implementation accepted")
	}
	// A registration moves the library generation: what was memoized under
	// the old schema set is not answered from.
	before, _ := p.ToolCallAt(res, stt, a)
	im := *impls[0]
	im.Name = "whisper-again"
	if err := lib.Register(im); err != nil {
		t.Fatal(err)
	}
	if after, err := p.ToolCallAt(res, stt, a); err != nil || &after.Args[0] == &before.Args[0] {
		t.Fatalf("a call memoized before the registration was answered after it (%v)", err)
	}
}

func TestToolCallCapabilityMismatch(t *testing.T) {
	p := newPlanner()
	node := &dag.Node{ID: "x", Capability: string(agents.CapSpeechToText)}
	if _, err := p.ToolCallFor(node, agents.ImplOpenCV); err == nil {
		t.Fatal("capability mismatch accepted")
	}
	if _, err := p.ToolCallFor(node, "ghost"); err == nil {
		t.Fatal("unknown implementation accepted")
	}
}

func TestDeterministicDecomposition(t *testing.T) {
	a, err := newPlanner().Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPlanner().Decompose(videoJob())
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.String() != b.Graph.String() {
		t.Fatal("decomposition not deterministic")
	}
}

// goldenJobs is one small job per template, each with an input the template
// skips, so node numbering by input position shows.
func goldenJobs() []workflow.Job {
	return []workflow.Job{
		{Description: "List objects shown in the videos", Constraint: workflow.MinCost, Inputs: []workflow.Input{
			{Name: "notes.txt", Kind: workflow.InputText},
			workflow.VideoInput("cats.mov", 60, 30, 12)}},
		{Description: "Generate social media newsfeed for ann", Constraint: workflow.MinCost, Inputs: []workflow.Input{
			{Name: "rust", Kind: workflow.InputTopic},
			{Name: "ann", Kind: workflow.InputUser},
			{Name: "go", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 5}}}},
		{Description: "Answer questions about the documents", Constraint: workflow.MinCost, Inputs: []workflow.Input{
			{Name: "a.pdf", Kind: workflow.InputDoc, Attrs: map[string]float64{"tokens": 1234}},
			{Name: "b.pdf", Kind: workflow.InputDoc}}},
		{Description: "Process things", Constraint: workflow.MinCost, Tasks: []string{"transcribe the audio", "summarize it"}, Inputs: []workflow.Input{
			{Name: "x.wav", Kind: workflow.InputText, Attrs: map[string]float64{"duration_s": 90}},
			{Name: "y.wav", Kind: workflow.InputText}}},
	}
}

// TestDecomposeGolden pins everything a template writes — graph, IDs, labels,
// works, metadata, trace observations — to a file rendered by the planner as
// it stood before templates built strings in an arena and metadata in a slab
// (metadata printed there in sorted key order, which is the order a template
// now lists its pairs in).
func TestDecomposeGolden(t *testing.T) {
	var b strings.Builder
	for _, job := range goldenJobs() {
		res, err := newPlanner().Decompose(job)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# %s\n%s", res.Template, res.Graph.String())
		for _, n := range res.Graph.Nodes() {
			fmt.Fprintf(&b, "%s %q work=%v", n.ID, n.Label, n.Work)
			for i := 0; i+1 < len(n.Metadata); i += 2 {
				fmt.Fprintf(&b, " %s=%s", n.Metadata[i], n.Metadata[i+1])
			}
			b.WriteString("\n")
		}
		for _, s := range res.Trace() {
			fmt.Fprintf(&b, "trace: %s\n", s.Observation)
		}
	}
	want, err := os.ReadFile("testdata/decompose.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("decomposition differs from testdata/decompose.golden; got:\n%s", b.String())
	}
}

// TestDecomposeAllocBudget holds decomposition to its allocation budget in a
// unit no host changes: a constant per job whatever the node count (the
// graph's parts, Freeze's two slabs, the arena, the metadata slab, the
// result), plus the index map's own growth with size.
func TestDecomposeAllocBudget(t *testing.T) {
	hints := func(units int) workflow.Job {
		job := workflow.Job{Description: "Process things", Constraint: workflow.MinCost,
			Tasks: []string{"transcribe the audio", "summarize it"}}
		for i := 0; i < units; i++ {
			job.Inputs = append(job.Inputs, workflow.Input{Name: fmt.Sprintf("clip%d.wav", i), Kind: workflow.InputText})
		}
		return job
	}
	p := newPlanner()
	for _, units := range []int{1, 4, 16} {
		for template, job := range map[string]workflow.Job{
			"video-understanding": workload.VideoJob(1, units, 30, 24, workflow.MinCost),
			"newsfeed":            workload.NewsfeedJob("ann", units, workflow.MinCost),
			"document-qa":         workload.DocQAJob(units, 1234, workflow.MinCost),
			"hint-chain":          hints(units),
		} {
			res, err := p.Decompose(job)
			if err != nil || res.Template != template {
				t.Fatalf("%s x%d: template %q, err %v", template, units, res.Template, err)
			}
			nodes := res.Graph.Len()
			got := testing.AllocsPerRun(100, func() { p.Decompose(job) })
			t.Logf("%-19s x%-2d %3d nodes: %.0f allocations", template, units, nodes, got)
			if limit := float64(decomposeAllocs + nodes/decomposeNodesPerAlloc); got > limit {
				t.Errorf("%s x%d (%d nodes): %.0f allocations, budget %.0f", template, units, nodes, got, limit)
			}
		}
	}
}

// The budget TestDecomposeAllocBudget enforces: allocations per Decompose
// stay within decomposeAllocs + nodes/decomposeNodesPerAlloc. At the parent
// of the change that introduced it the same jobs cost 41 to 866. The constant
// is the measured maximum (newsfeed ×1, video-understanding ×4); it was 24
// while every decomposition rendered its ReAct trace and grew two slices.
const (
	decomposeAllocs        = 16
	decomposeNodesPerAlloc = 16
)
