package quality

import (
	"math"
	"testing"

	"repro/internal/dag"
)

// chain builds a -> b -> c.
func chain(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New()
	g.MustAddNode(dag.Node{ID: "a", Capability: "stt", Work: 1})
	g.MustAddNode(dag.Node{ID: "b", Capability: "summarize", Work: 1})
	g.MustAddNode(dag.Node{ID: "c", Capability: "embed", Work: 1})
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChainCorrectnessMultiplies(t *testing.T) {
	g := chain(t)
	q := StageQuality{"stt": 0.9, "summarize": 0.8, "embed": 1.0}
	got := ChainCorrectness(g, q)
	want := 0.9 * 0.8 * 1.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("chain correctness = %v, want %v", got, want)
	}
}

func TestChainCorrectnessUnknownCapabilityIsPerfect(t *testing.T) {
	g := chain(t)
	got := ChainCorrectness(g, StageQuality{})
	if got != 1 {
		t.Fatalf("correctness with no quality info = %v, want 1", got)
	}
}

func TestChainCorrectnessWeakestLeaf(t *testing.T) {
	g := dag.New()
	g.MustAddNode(dag.Node{ID: "root", Capability: "stt"})
	g.MustAddNode(dag.Node{ID: "good", Capability: "embed"})
	g.MustAddNode(dag.Node{ID: "bad", Capability: "summarize"})
	g.MustAddEdge("root", "good")
	g.MustAddEdge("root", "bad")
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	q := StageQuality{"stt": 1, "embed": 0.99, "summarize": 0.5}
	if got := ChainCorrectness(g, q); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("weakest leaf = %v, want 0.5", got)
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{Checkpoints: []Checkpoint{{Capability: ""}}},
		{Checkpoints: []Checkpoint{{Capability: "a"}, {Capability: "a"}}},
		{Checkpoints: []Checkpoint{{Capability: "a", DetectionRate: 1.5}}},
		{Checkpoints: []Checkpoint{{Capability: "a", CostS: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid policy accepted", i)
		}
	}
	good := Policy{Checkpoints: []Checkpoint{{Capability: "a", DetectionRate: 0.9, CostS: 0.1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateMatchesAnalyticNoCheckpoints(t *testing.T) {
	g := chain(t)
	q := StageQuality{"stt": 0.9, "summarize": 0.8, "embed": 0.95}
	out, err := Simulate(g, q, Policy{}, 20000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := ChainCorrectness(g, q)
	if math.Abs(out.Correctness-want) > 0.02 {
		t.Fatalf("Monte-Carlo %v vs analytic %v", out.Correctness, want)
	}
	if out.MeanRetries != 0 || out.CheckpointCostS != 0 {
		t.Fatal("retries/cost nonzero without checkpoints")
	}
}

func TestSimulateCheckpointsImproveCorrectness(t *testing.T) {
	g := chain(t)
	q := StageQuality{"stt": 0.8, "summarize": 0.8, "embed": 0.95}
	base, _ := Simulate(g, q, Policy{}, 20000, 3, 1)
	p := Policy{Checkpoints: []Checkpoint{
		{Capability: "stt", DetectionRate: 0.95, CostS: 0.2},
		{Capability: "summarize", DetectionRate: 0.95, CostS: 0.2},
	}}
	checked, err := Simulate(g, q, p, 20000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Correctness <= base.Correctness+0.05 {
		t.Fatalf("checkpoints did not help: %v vs %v", checked.Correctness, base.Correctness)
	}
	if checked.MeanRetries <= 0 {
		t.Fatal("no retries recorded")
	}
	if checked.CheckpointCostS <= 0 {
		t.Fatal("no checkpoint cost recorded")
	}
}

func TestSimulateRejectsBadArgs(t *testing.T) {
	g := chain(t)
	if _, err := Simulate(g, StageQuality{}, Policy{}, 0, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	bad := Policy{Checkpoints: []Checkpoint{{Capability: "x", DetectionRate: 2}}}
	if _, err := Simulate(g, StageQuality{}, bad, 10, 0, 1); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestRankStageImpactPrefersEarlyWeakStage(t *testing.T) {
	g := chain(t)
	// stt is weakest AND earliest (cascades furthest): fixing it helps most.
	q := StageQuality{"stt": 0.7, "summarize": 0.9, "embed": 0.95}
	ranked := RankStageImpact(g, q)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d stages", len(ranked))
	}
	if ranked[0].Capability != "stt" {
		t.Fatalf("top impact = %s, want stt", ranked[0].Capability)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Delta < ranked[i].Delta {
			t.Fatal("impact not sorted descending")
		}
	}
}

func TestGreedyPolicyTopK(t *testing.T) {
	g := chain(t)
	q := StageQuality{"stt": 0.7, "summarize": 0.9, "embed": 0.95}
	p := GreedyPolicy(g, q, 2, 0.9, 0.1)
	if len(p.Checkpoints) != 2 {
		t.Fatalf("policy has %d checkpoints, want 2", len(p.Checkpoints))
	}
	if p.Checkpoints[0].Capability != "stt" {
		t.Fatalf("first checkpoint on %s, want stt", p.Checkpoints[0].Capability)
	}
	// Perfect stages must not get checkpoints.
	perfect := StageQuality{"stt": 1, "summarize": 1, "embed": 1}
	if got := GreedyPolicy(g, perfect, 3, 0.9, 0.1); len(got.Checkpoints) != 0 {
		t.Fatalf("checkpoints on perfect stages: %v", got.Checkpoints)
	}
}

func TestSimulateDeterministicSeed(t *testing.T) {
	g := chain(t)
	q := StageQuality{"stt": 0.8, "summarize": 0.8}
	p := Policy{Checkpoints: []Checkpoint{{Capability: "stt", DetectionRate: 0.9, CostS: 0.1}}}
	a, _ := Simulate(g, q, p, 1000, 2, 7)
	b, _ := Simulate(g, q, p, 1000, 2, 7)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
