package planner

import (
	"fmt"
	"slices"

	"repro/internal/agents"
	"repro/internal/dag"
)

// ToolCallFor generates the executable tool call for a task once the
// runtime has selected a concrete implementation — the paper's example:
// given "Extract frames from each video" and metadata, the LLM emits
// FrameExtractor(start_time=0, end_time=60s, num_frames=10, file="cats.mov").
// The call is validated against the implementation's schema before return;
// an invalid generation is a bug surfaced as an error, mirroring the
// quality-control checkpoints §5 calls for.
func (p *Planner) ToolCallFor(node *dag.Node, implName string) (agents.ToolCall, error) {
	im, ok := p.impl(implName)
	if !ok {
		return agents.ToolCall{}, fmt.Errorf("planner: tool call for unknown implementation %q", implName)
	}
	if string(im.Capability) != node.Capability {
		return agents.ToolCall{}, fmt.Errorf("planner: implementation %q provides %q, task %q needs %q",
			implName, im.Capability, node.ID, node.Capability)
	}
	if p.calls == nil || cap(p.calls.kv)-len(p.calls.kv) < 8 || p.calls.text.Cap()-p.calls.text.Len() < 128 {
		p.calls = &slab{kv: make([]string, 0, 1<<10)}
		p.calls.text.Grow(1 << 12)
	}
	meta, cat := node.Metadata, p.calls
	start := len(cat.kv)
	arg := func(name, value string) { cat.kv = append(cat.kv, name, value) }

	switch im.Capability {
	case agents.CapFrameExtraction:
		arg("file", metaOr(meta, "video", "input.mov"))
		arg("num_frames", metaOr(meta, "num_frames", "24"))
	case agents.CapSpeechToText:
		arg("file", metaOr(meta, "video", "input.mov"))
	case agents.CapObjectDetection:
		arg("frames", cat.str(metaOr(meta, "video", "input"), "/scene", metaOr(meta, "scene", "0"), "/frames"))
	case agents.CapSummarization:
		if hasArg(im, "context_len") {
			arg("context_len", "4096")
		}
		if hasArg(im, "system_prompt") {
			arg("system_prompt", "You are an agent that can describe images in detail.")
		}
		arg("user_prompt", cat.str("Summarize the scenes using frames, detected objects and transcripts. (",
			metaOr(meta, "video", metaOr(meta, "user", "input")), " scene ", metaOr(meta, "scene", "-"), ")"))
	case agents.CapEmbedding:
		arg("text", cat.str("summary of ", metaOr(meta, "video", metaOr(meta, "doc", "input")), " scene ", metaOr(meta, "scene", "-")))
	case agents.CapQA:
		arg("question", metaOr(meta, "question", "What objects appear?"))
	case agents.CapSentiment:
		arg("text", cat.str("generated feed for ", metaOr(meta, "user", "user")))
	case agents.CapWebSearch:
		arg("query", metaOr(meta, "topic", "news"))
		if hasArg(im, "top_k") {
			arg("top_k", "10")
		}
	case agents.CapRanking:
		arg("items", cat.str("search results for ", metaOr(meta, "user", "user")))
	case agents.CapCalculator:
		arg("expression", metaOr(meta, "expression", "1+1"))
	default:
		return agents.ToolCall{}, fmt.Errorf("planner: no tool-call recipe for capability %q", im.Capability)
	}

	tc := agents.ToolCall{Agent: implName, Args: cat.kv[start:len(cat.kv):len(cat.kv)]}
	if err := p.lib.ValidateCall(tc); err != nil {
		return agents.ToolCall{}, fmt.Errorf("planner: generated invalid tool call: %w", err)
	}
	return tc, nil
}

// ToolCallAt is ToolCallFor for node i of a decomposition's graph, memoized
// in the decomposition: graphs are frozen and shared by structurally-identical
// executions, so a long-lived serving runtime replays the same nodes
// continually, and generation is a pure function of node metadata and the
// schema, which the library generation guards. One slot per node — a task
// runs under one implementation at a time, and a reconfigured binding simply
// overwrites it — so the memo lives and dies with the decomposition and a
// lookup is an index, not a hash.
func (p *Planner) ToolCallAt(res *Result, i int, implName string) (agents.ToolCall, error) {
	if res.calls == nil {
		res.calls = make([]callSlot, res.Graph.Len())
	}
	slot, gen := &res.calls[i], p.lib.Gen()+1
	if slot.gen == gen && slot.tc.Agent == implName {
		return slot.tc, nil
	}
	tc, err := p.ToolCallFor(res.Graph.NodeAt(i), implName)
	if err == nil {
		*slot = callSlot{gen: gen, tc: tc}
	}
	return tc, err
}

func metaOr(m dag.Meta, k, def string) string {
	if v, ok := m.Get(k); ok && v != "" {
		return v
	}
	return def
}

func hasArg(im *agents.Implementation, name string) bool {
	return slices.ContainsFunc(im.Args, func(a agents.ArgSpec) bool { return a.Name == name })
}
