// Package quality implements the paper's §5 "Quantifying and Controlling
// Quality" discussion: end-to-end workflow quality under cascading errors,
// correctness checkpoints that catch early-stage hallucinations, and a
// stage-impact analysis that "narrow[s] the search space by identifying
// stages with the greatest impact on cost and accuracy".
//
// The error model: each stage i has per-task error probability
// e_i = 1 - quality_i. Errors cascade — a hallucinated transcript derails
// every downstream stage consuming it — so without checkpoints the
// probability a task's final output is correct is Π(1-e_i) along its
// dependency chain. A checkpoint after stage i validates the output with a
// given detection rate and triggers a re-execution on detection, converting
// silent corruption into bounded retry cost.
package quality

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dag"
)

// StageQuality maps capability → per-task success probability in [0,1].
type StageQuality map[string]float64

// ChainCorrectness returns the probability that a leaf task's output is
// correct when errors cascade along its longest dependency chain, with no
// checkpoints. The graph must be frozen.
func ChainCorrectness(g *dag.Graph, q StageQuality) float64 {
	correct := map[dag.NodeID]float64{}
	for _, id := range g.TopoOrder() {
		node, _ := g.Node(id)
		sq, ok := q[node.Capability]
		if !ok {
			sq = 1
		}
		// A node is correct iff its own execution is correct AND every
		// predecessor's output was correct (worst-case AND across inputs).
		p := sq
		for _, pre := range g.Predecessors(id) {
			p *= correct[pre]
		}
		correct[id] = p
	}
	// Workflow correctness: product over leaves (all final outputs correct)
	// is too pessimistic for reporting; use the minimum leaf (the weakest
	// final artifact), matching "hallucinations in early stages can derail
	// workflows".
	min := 1.0
	for _, leaf := range g.Leaves() {
		if correct[leaf] < min {
			min = correct[leaf]
		}
	}
	return min
}

// Checkpoint is a validator placed after one capability's tasks.
type Checkpoint struct {
	Capability string
	// DetectionRate is the probability a corrupted output is caught.
	DetectionRate float64
	// CostS is validator latency per task (e.g. a small-LLM judge call).
	CostS float64
}

// Policy is a set of checkpoints.
type Policy struct {
	Checkpoints []Checkpoint
}

// ByCapability returns the checkpoint for a capability, if any.
func (p Policy) ByCapability(cap string) (Checkpoint, bool) {
	for _, c := range p.Checkpoints {
		if c.Capability == cap {
			return c, true
		}
	}
	return Checkpoint{}, false
}

// Validate checks the policy.
func (p Policy) Validate() error {
	seen := map[string]bool{}
	for _, c := range p.Checkpoints {
		if c.Capability == "" {
			return fmt.Errorf("quality: checkpoint without capability")
		}
		if seen[c.Capability] {
			return fmt.Errorf("quality: duplicate checkpoint for %q", c.Capability)
		}
		seen[c.Capability] = true
		if c.DetectionRate < 0 || c.DetectionRate > 1 {
			return fmt.Errorf("quality: detection rate %v outside [0,1]", c.DetectionRate)
		}
		if c.CostS < 0 {
			return fmt.Errorf("quality: negative checkpoint cost")
		}
	}
	return nil
}

// Outcome summarizes a Monte-Carlo evaluation of a policy on a graph.
type Outcome struct {
	// Correctness is the mean fraction of correct final artifacts (leaf
	// outputs) per trial — comparable to ChainCorrectness when leaves share
	// the same dependency structure.
	Correctness float64
	// MeanRetries is the average number of stage re-executions per trial.
	MeanRetries float64
	// CheckpointCostS is the total validator latency added per trial.
	CheckpointCostS float64
}

// Simulate Monte-Carlo evaluates a checkpoint policy: each trial samples
// per-node errors, applies checkpoints (detected errors re-execute the node,
// up to maxRetries), and reports end-to-end correctness and retry cost. The
// seed makes runs reproducible.
func Simulate(g *dag.Graph, q StageQuality, p Policy, trials, maxRetries int, seed int64) (Outcome, error) {
	if err := p.Validate(); err != nil {
		return Outcome{}, err
	}
	if trials <= 0 {
		return Outcome{}, fmt.Errorf("quality: non-positive trials")
	}
	rng := rand.New(rand.NewSource(seed))
	leafFractionSum := 0.0
	totalRetries := 0
	totalCheckCost := 0.0

	order := g.TopoOrder()
	for t := 0; t < trials; t++ {
		nodeOK := map[dag.NodeID]bool{}
		for _, id := range order {
			node, _ := g.Node(id)
			sq, ok := q[node.Capability]
			if !ok {
				sq = 1
			}
			inputsOK := true
			for _, pre := range g.Predecessors(id) {
				if !nodeOK[pre] {
					inputsOK = false
					break
				}
			}
			ok = inputsOK && rng.Float64() < sq
			if cp, has := p.ByCapability(node.Capability); has {
				totalCheckCost += cp.CostS
				// Retry while the checkpoint catches a bad output. A retry
				// only helps when the error originated at this node; bad
				// inputs reproduce the failure.
				for r := 0; r < maxRetries && !ok && rng.Float64() < cp.DetectionRate; r++ {
					totalRetries++
					totalCheckCost += cp.CostS
					ok = inputsOK && rng.Float64() < sq
				}
			}
			nodeOK[id] = ok
		}
		leaves := g.Leaves()
		okLeaves := 0
		for _, leaf := range leaves {
			if nodeOK[leaf] {
				okLeaves++
			}
		}
		if len(leaves) > 0 {
			leafFractionSum += float64(okLeaves) / float64(len(leaves))
		}
	}
	return Outcome{
		Correctness:     leafFractionSum / float64(trials),
		MeanRetries:     float64(totalRetries) / float64(trials),
		CheckpointCostS: totalCheckCost / float64(trials),
	}, nil
}

// StageImpact quantifies each capability's leverage on end-to-end
// correctness: the improvement in ChainCorrectness from making that stage
// perfect. The §5 search-space-narrowing signal — checkpoint the stages
// with the greatest impact first.
type StageImpact struct {
	Capability string
	// Delta is the correctness gain from perfecting this stage alone.
	Delta float64
}

// RankStageImpact returns capabilities sorted by descending impact.
func RankStageImpact(g *dag.Graph, q StageQuality) []StageImpact {
	base := ChainCorrectness(g, q)
	var out []StageImpact
	for cap := range q {
		perfect := StageQuality{}
		for k, v := range q {
			perfect[k] = v
		}
		perfect[cap] = 1
		out = append(out, StageImpact{
			Capability: cap,
			Delta:      ChainCorrectness(g, perfect) - base,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Delta != out[j].Delta {
			return out[i].Delta > out[j].Delta
		}
		return out[i].Capability < out[j].Capability
	})
	return out
}

// GreedyPolicy builds a checkpoint policy covering the top-k highest-impact
// stages with the given validator characteristics.
func GreedyPolicy(g *dag.Graph, q StageQuality, k int, detectionRate, costS float64) Policy {
	ranked := RankStageImpact(g, q)
	var p Policy
	for i := 0; i < k && i < len(ranked); i++ {
		if ranked[i].Delta <= 0 {
			break
		}
		p.Checkpoints = append(p.Checkpoints, Checkpoint{
			Capability:    ranked[i].Capability,
			DetectionRate: detectionRate,
			CostS:         costS,
		})
	}
	return p
}
