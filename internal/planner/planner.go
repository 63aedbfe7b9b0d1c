// Package planner implements Murakkab's job decomposition (§3.2): lowering a
// declarative Job into a task DAG, following the ReAct pattern — a result
// reports the planner's thought/action/observation steps — and generating
// executable tool calls for the selected agents.
//
// Substitution note (see DESIGN.md): the paper uses NVLM as the orchestrator
// LLM. We simulate it with a deterministic template planner that consumes
// the same inputs the LLM would (job description, task hints, the agent
// library's system prompt) and produces the same outputs (DAG, ReAct trace,
// tool calls, and token counts for the planning queries whose latency the
// runtime charges against the workflow — the §3.3(b) "<1%" overhead claim).
package planner

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/agents"
	"repro/internal/dag"
	"repro/internal/workflow"
)

// Step is one ReAct iteration.
type Step struct {
	Thought     string
	Action      string
	Observation string
}

// Query is one planning LLM call's token footprint; the runtime submits it
// to the orchestrator-LLM serving engine to charge realistic latency.
type Query struct {
	Purpose      string
	PromptTokens int
	OutputTokens int
}

// Result is a completed decomposition. Every template emits the same two
// planning queries: the decomposition itself, then the batched tool calls.
type Result struct {
	Template string
	Graph    *dag.Graph
	Queries  [2]Query
	// videos is the video template's input count, which its trace reports.
	videos int
	// calls memoizes the generated-and-validated tool call of each node of
	// Graph, by node index (see Planner.ToolCallAt); made on first use, by the
	// one goroutine that executes the decomposition.
	calls []callSlot
}

// callSlot is one node's memoized tool call: valid for the implementation it
// names (tc.Agent) while the library's generation is gen-1, so the zero slot
// matches nothing.
type callSlot struct {
	gen int
	tc  agents.ToolCall
}

// templateSteps is each template's first ReAct step: its thought and action.
var templateSteps = map[string][2]string{
	"newsfeed": {"The job asks for a social-media newsfeed; search, rank, generation and a safety filter are needed.",
		"select template newsfeed"},
	"video-understanding": {"The job mentions videos and objects; frames, transcripts, detections and per-scene summaries are needed.",
		"select template video-understanding"},
	"document-qa": {"The job asks questions over documents; embed then retrieve-and-answer.",
		"select template document-qa"},
	"hint-chain": {"No template matches; chaining the user-provided sub-tasks.",
		"map task hints to capabilities"},
}

// Trace returns the decomposition's ReAct steps: the template choice, the
// video template's parallelism observation and the emitted DAG. Only readers
// of the trace (the examples, the tests) need the text, so it is rendered on
// each call from the template and the frozen graph, not per decomposition.
func (r *Result) Trace() []Step {
	first := templateSteps[r.Template]
	steps := []Step{{Thought: first[0], Action: first[1], Observation: "ok"}}
	if r.Template == "video-understanding" {
		steps = append(steps, Step{
			Thought:     "Speech-to-Text is the main dependency for the later stages.",
			Action:      "expose per-scene parallelism in the DAG",
			Observation: fmt.Sprintf("%d videos, %d tasks", r.videos, r.Graph.Len()),
		})
	}
	return append(steps, Step{
		Thought:     "The task graph is complete.",
		Action:      "emit DAG",
		Observation: fmt.Sprintf("%d tasks across %d capabilities", r.Graph.Len(), r.Graph.CapSlots()),
	})
}

// TotalPlanningTokens sums tokens across planning queries.
func (r *Result) TotalPlanningTokens() (prompt, output int) {
	for _, q := range r.Queries {
		prompt += q.PromptTokens
		output += q.OutputTokens
	}
	return prompt, output
}

// Planner lowers jobs into DAGs using the agent library.
type Planner struct {
	lib *agents.Library
	// implCache holds one Library.Get clone per implementation name, valid
	// for implGen == lib.Gen(): a tool call is generated per executed task,
	// and cloning the schema on every one would allocate on the dispatch hot
	// path.
	implCache map[string]*agents.Implementation
	implGen   int
	// calls is what generated calls are cut from; ToolCallFor starts a fresh
	// one when it fills up, and a memoized call keeps the old one alive.
	calls *slab
}

// New creates a planner over a library.
func New(lib *agents.Library) *Planner {
	if lib == nil {
		panic("planner: nil library")
	}
	return &Planner{lib: lib, implCache: map[string]*agents.Implementation{}}
}

// checkGen flushes the implementation memo when the library's registration
// generation moves.
func (p *Planner) checkGen() {
	if p.implGen != p.lib.Gen() {
		p.implCache = map[string]*agents.Implementation{}
		p.implGen = p.lib.Gen()
	}
}

// impl is a memoized Library.Get; entries invalidate when the library's
// registration generation changes.
func (p *Planner) impl(name string) (*agents.Implementation, bool) {
	p.checkGen()
	if im, ok := p.implCache[name]; ok {
		return im, true
	}
	im, ok := p.lib.Get(name)
	if ok {
		p.implCache[name] = im
	}
	return im, ok
}

// Decompose lowers a job into a task DAG. It selects a workflow template
// from the description (video understanding, newsfeed, document QA), falls
// back to chaining the user's task hints, and errors when neither applies —
// the paper's orchestrator would likewise fail to plan an unintelligible
// job.
func (p *Planner) Decompose(job workflow.Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	desc := strings.ToLower(job.Description)
	res := &Result{}
	res.Queries[0] = Query{
		Purpose:      "decompose",
		PromptTokens: promptTokens(p.lib, job),
		OutputTokens: 16, // the DAG spec is terse: task ids and edges
	}

	var err error
	switch {
	case strings.Contains(desc, "newsfeed") || strings.Contains(desc, "social media"):
		res.Template = "newsfeed"
		err = p.buildNewsfeed(res, job)
	case hasKind(job, workflow.InputVideo) &&
		(strings.Contains(desc, "object") || strings.Contains(desc, "video") || strings.Contains(desc, "scene")):
		res.Template = "video-understanding"
		err = p.buildVideoUnderstanding(res, job)
	case hasKind(job, workflow.InputDoc) &&
		(strings.Contains(desc, "question") || strings.Contains(desc, "answer")):
		res.Template = "document-qa"
		err = p.buildDocQA(res, job)
	case len(job.Tasks) > 0:
		res.Template = "hint-chain"
		err = p.buildHintChain(res, job)
	default:
		return nil, fmt.Errorf("planner: cannot decompose job %s: no template matches and no task hints given", quoteDescription(job.Description))
	}
	if err != nil {
		return nil, err
	}

	if err := res.Graph.Freeze(); err != nil {
		return nil, fmt.Errorf("planner: produced invalid DAG: %w", err)
	}
	// One tool-call generation query per capability (batched); each call
	// is a one-line function invocation, so outputs are tiny.
	caps := res.Graph.CapSlots()
	res.Queries[1] = Query{
		Purpose:      "tool-calls",
		PromptTokens: 32 * caps,
		OutputTokens: 4 * caps,
	}
	return res, nil
}

// maxQuotedDescription bounds how much of a caller-supplied description an
// error message echoes: the message is returned on the wire and retained in
// the job record for the history's lifetime, so it must not scale with input.
const maxQuotedDescription = 128

// quoteDescription quotes a description for an error message, cut to
// maxQuotedDescription bytes (at a rune boundary) with the full length noted.
func quoteDescription(d string) string {
	if len(d) <= maxQuotedDescription {
		return strconv.Quote(d)
	}
	cut := maxQuotedDescription
	for cut > 0 && !utf8.RuneStart(d[cut]) {
		cut--
	}
	return fmt.Sprintf("%q… (%d bytes)", d[:cut], len(d))
}

func hasKind(job workflow.Job, k workflow.InputKind) bool {
	for _, in := range job.Inputs {
		if in.Kind == k {
			return true
		}
	}
	return false
}

// promptTokens estimates the decomposition prompt size: the library system
// prompt plus the job description and hints, at ~4 characters per token.
func promptTokens(lib *agents.Library, job workflow.Job) int {
	chars := len(lib.SystemPrompt()) + len(job.Description)
	for _, t := range job.Tasks {
		chars += len(t)
	}
	n := chars / 4
	if n < 16 {
		n = 16
	}
	return n
}

// Per-scene LLM sizing for video understanding: the summarization prompt
// carries the frames, detections and transcript (~1800 tokens) and produces
// a ~500-token summary; its embedding covers the ~600-token summary text.
const (
	SummarizePromptTokens = 1800
	SummarizeOutputTokens = 500
	EmbedTokens           = 600
	// SummarizePrefillWeight converts prompt tokens to work units,
	// matching llmsim.NVLMText().PrefillWeight.
	SummarizePrefillWeight = 0.10
)

// SummarizeWork is the profile-work of one scene summarization.
func SummarizeWork() float64 {
	return SummarizePromptTokens*SummarizePrefillWeight + SummarizeOutputTokens
}

// Pre-rendered metadata values: decomposition runs on every admission that
// misses the decomposition cache, so formatting the same constant token
// counts through fmt on each build showed up as a top allocation site.
var (
	summarizePromptTokensStr = strconv.Itoa(SummarizePromptTokens)
	summarizeOutputTokensStr = strconv.Itoa(SummarizeOutputTokens)
	embedTokensStr           = strconv.Itoa(EmbedTokens)
)

// slab is the storage a batch of generated values is cut from: strings out of
// one arena, key/value views out of one []string, instead of a concatenation
// or a map each. Outgrowing either costs a reallocation; strings and views
// handed out earlier stay valid, since nothing is ever written twice.
type slab struct {
	text strings.Builder
	kv   []string
}

// str returns the concatenation of parts as a substring of the arena.
func (s *slab) str(parts ...string) string {
	start := s.text.Len()
	for _, p := range parts {
		s.text.WriteString(p)
	}
	return s.text.String()[start:]
}

// itoa renders n as a substring of the arena.
func (s *slab) itoa(n int) string {
	var buf [20]byte
	start := s.text.Len()
	s.text.Write(strconv.AppendInt(buf[:0], int64(n), 10))
	return s.text.String()[start:]
}

// builder assembles one template's graph on a slab sized up front. The sizes
// are hints, clamped because input attributes set them.
type builder struct {
	g *dag.Graph
	slab
}

func newBuilder(res *Result, nodes, edges, textBytes, metaPairs int) *builder {
	hint := func(n int) int { return max(0, min(n, 1<<12)) }
	b := &builder{g: dag.NewSized(hint(nodes), hint(edges))}
	b.kv = make([]string, 0, 2*hint(metaPairs))
	b.text.Grow(32 * hint(textBytes/32))
	res.Graph = b.g
	return b
}

// node adds a node; kv is its metadata as alternating key, value, keys sorted.
func (b *builder) node(id string, cap agents.Capability, label string, work float64, kv ...string) dag.NodeID {
	start := len(b.kv)
	b.kv = append(b.kv, kv...)
	b.g.MustAddNode(dag.Node{ID: dag.NodeID(id), Capability: string(cap), Label: label, Work: work,
		Metadata: b.kv[start:len(b.kv):len(b.kv)]})
	return dag.NodeID(id)
}

func (p *Planner) buildVideoUnderstanding(res *Result, job workflow.Job) error {
	videos, total, text := 0, 0, 0
	for _, in := range job.Inputs {
		if in.Kind == workflow.InputVideo {
			n := int(in.Attr("scenes", 1))
			videos, total, text = videos+1, total+n, text+n*(5*len(in.Name)+160)
		}
	}
	if videos == 0 {
		return fmt.Errorf("planner: video-understanding template without video inputs")
	}
	b := newBuilder(res, 5*total, 4*total, text, 15*total)
	for vi, in := range job.Inputs {
		if in.Kind != workflow.InputVideo {
			continue
		}
		scenes := int(in.Attr("scenes", 1))
		frames := in.Attr("frames_per_scene", 24)
		sceneLen := in.Attr("scene_len_s", 30)
		viStr := b.itoa(vi)
		framesStr := b.itoa(int(frames))
		sceneLenStr := strconv.FormatFloat(sceneLen, 'g', -1, 64) // as fmt.Sprint renders it
		for s := 0; s < scenes; s++ {
			sStr := b.itoa(s)
			id := func(stage string) string { return b.str(stage, "_v", viStr, "_s", sStr) }
			label := func(verb string) string { return b.str(verb, " ", in.Name, " scene ", sStr) }
			ext := b.node(id("ext"), agents.CapFrameExtraction, label("extract"), frames,
				"num_frames", framesStr, "scene", sStr, "video", in.Name)
			stt := b.node(id("stt"), agents.CapSpeechToText, label("transcribe"), sceneLen,
				"audio_s", sceneLenStr, "scene", sStr, "video", in.Name)
			det := b.node(id("det"), agents.CapObjectDetection, label("detect"), frames,
				"scene", sStr, "video", in.Name)
			sum := b.node(id("sum"), agents.CapSummarization, label("summarize"), SummarizeWork(),
				"output_tokens", summarizeOutputTokensStr, "prompt_tokens", summarizePromptTokensStr,
				"scene", sStr, "video", in.Name)
			emb := b.node(id("emb"), agents.CapEmbedding, label("embed"), EmbedTokens,
				"prompt_tokens", embedTokensStr, "scene", sStr, "video", in.Name)
			// Dataflow: frames feed detection; transcript and detections
			// feed the summary; the summary is embedded. Speech-to-Text has
			// no upstream dependency — exactly why the paper identifies it
			// as "the main dependency for the later stages".
			b.g.MustAddEdge(ext, det)
			b.g.MustAddEdge(stt, sum)
			b.g.MustAddEdge(det, sum)
			b.g.MustAddEdge(sum, emb)
		}
	}
	res.videos = videos
	return nil
}

func (p *Planner) buildNewsfeed(res *Result, job workflow.Job) error {
	user := "user"
	topics, text := 0, 0
	for _, in := range job.Inputs {
		switch in.Kind {
		case workflow.InputUser:
			user = in.Name
		case workflow.InputTopic:
			topics, text = topics+1, text+len(in.Name)+24
		}
	}
	if topics == 0 {
		return fmt.Errorf("planner: newsfeed template without topic inputs")
	}
	b := newBuilder(res, topics+3, topics+2, text, 2*topics+5)
	for ti, in := range job.Inputs {
		if in.Kind == workflow.InputTopic {
			b.node(b.str("search_t", b.itoa(ti)), agents.CapWebSearch, b.str("search ", in.Name),
				in.Attr("queries", 3), "topic", in.Name, "user", user)
		}
	}
	searches := b.g.Nodes()
	rank := b.node("rank", agents.CapRanking, "rank results", float64(topics*10), "user", user)
	gen := b.node("generate", agents.CapSummarization, "generate feed", SummarizeWork(),
		"output_tokens", summarizeOutputTokensStr, "prompt_tokens", summarizePromptTokensStr, "user", user)
	sent := b.node("sentiment", agents.CapSentiment, "sentiment filter", float64(topics), "user", user)
	for _, n := range searches {
		b.g.MustAddEdge(n.ID, rank)
	}
	b.g.MustAddEdge(rank, gen)
	b.g.MustAddEdge(gen, sent)
	return nil
}

func (p *Planner) buildDocQA(res *Result, job workflow.Job) error {
	docs, text := 0, 0
	for _, in := range job.Inputs {
		if in.Kind == workflow.InputDoc {
			docs, text = docs+1, text+len(in.Name)+32
		}
	}
	if docs == 0 {
		return fmt.Errorf("planner: document-qa template without document inputs")
	}
	b := newBuilder(res, docs+1, docs, text, 2*docs+2)
	for di, in := range job.Inputs {
		if in.Kind == workflow.InputDoc {
			tokens := in.Attr("tokens", 800)
			b.node(b.str("embed_d", b.itoa(di)), agents.CapEmbedding, b.str("embed ", in.Name), tokens,
				"doc", in.Name, "prompt_tokens", b.itoa(int(tokens)))
		}
	}
	embeds := b.g.Nodes()
	qa := b.node("answer", agents.CapQA, "answer question", 400, "output_tokens", "280", "prompt_tokens", "1200")
	for _, n := range embeds {
		b.g.MustAddEdge(n.ID, qa)
	}
	return nil
}

// hintCapability maps a free-text task hint to a capability by keyword.
func hintCapability(hint string) (agents.Capability, error) {
	h := strings.ToLower(hint)
	switch {
	case strings.Contains(h, "frame"):
		return agents.CapFrameExtraction, nil
	case strings.Contains(h, "speech") || strings.Contains(h, "transcri") || strings.Contains(h, "audio"):
		return agents.CapSpeechToText, nil
	case strings.Contains(h, "object") || strings.Contains(h, "detect"):
		return agents.CapObjectDetection, nil
	case strings.Contains(h, "summar") || strings.Contains(h, "describe"):
		return agents.CapSummarization, nil
	case strings.Contains(h, "embed"):
		return agents.CapEmbedding, nil
	case strings.Contains(h, "search"):
		return agents.CapWebSearch, nil
	case strings.Contains(h, "rank"):
		return agents.CapRanking, nil
	case strings.Contains(h, "sentiment"):
		return agents.CapSentiment, nil
	case strings.Contains(h, "question") || strings.Contains(h, "answer"):
		return agents.CapQA, nil
	case strings.Contains(h, "calculat") || strings.Contains(h, "comput"):
		return agents.CapCalculator, nil
	default:
		return "", fmt.Errorf("planner: cannot map task hint %q to any capability", hint)
	}
}

func (p *Planner) buildHintChain(res *Result, job workflow.Job) error {
	text := 0
	for _, hint := range job.Tasks {
		text += len(job.Inputs) * (len(hint) + 16)
	}
	for _, in := range job.Inputs {
		text += len(job.Tasks) * len(in.Name)
	}
	nodes := len(job.Tasks) * len(job.Inputs)
	b := newBuilder(res, nodes, nodes, text, nodes)
	prev := make([]dag.NodeID, len(job.Inputs))
	for hi, hint := range job.Tasks {
		cap, err := hintCapability(hint)
		if err != nil {
			return err
		}
		if !p.lib.HasCapability(cap) {
			return fmt.Errorf("planner: no implementation in library for capability %q (hint %q)", cap, hint)
		}
		for ii, in := range job.Inputs {
			id := b.node(b.str("t", b.itoa(hi), "_i", b.itoa(ii)), cap, b.str(hint, " / ", in.Name),
				hintWork(cap, in), "input", in.Name)
			if hi > 0 {
				// Chain per-input: task h on input i depends on task h-1 on i.
				b.g.MustAddEdge(prev[ii], id)
			}
			prev[ii] = id
		}
	}
	return nil
}

func hintWork(cap agents.Capability, in workflow.Input) float64 {
	switch cap {
	case agents.CapFrameExtraction, agents.CapObjectDetection:
		return in.Attr("frames_per_scene", 24) * in.Attr("scenes", 1)
	case agents.CapSpeechToText:
		return in.Attr("duration_s", 60)
	case agents.CapSummarization, agents.CapQA:
		return SummarizeWork()
	case agents.CapEmbedding:
		return in.Attr("tokens", EmbedTokens)
	default:
		return 1
	}
}
