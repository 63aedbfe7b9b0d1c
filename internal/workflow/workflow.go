// Package workflow defines Murakkab's declarative programming model — the
// Listing 2 surface. A Job is a natural-language description, typed inputs,
// optional task hints, and a high-level constraint. Everything else (models,
// tools, hardware, parallelism) is the runtime's concern.
package workflow

import (
	"fmt"
	"strings"
)

// Constraint is the user's optimization objective (Listing 2's MIN_COST).
// The paper plans "multiple constraints with a priority ordering" as future
// work; we implement a single primary constraint plus an optional quality
// floor, and the optimizer ablations explore the rest.
type Constraint int

// Supported constraints.
const (
	// MinCost minimizes monetary cost, "potentially in exchange for latency".
	MinCost Constraint = iota
	// MinLatency minimizes workflow completion time.
	MinLatency
	// MinPower minimizes energy consumption.
	MinPower
	// MaxQuality maximizes result quality within resource availability.
	MaxQuality
)

// String returns the Listing 2 spelling.
func (c Constraint) String() string {
	switch c {
	case MinCost:
		return "MIN_COST"
	case MinLatency:
		return "MIN_LATENCY"
	case MinPower:
		return "MIN_POWER"
	case MaxQuality:
		return "MAX_QUALITY"
	default:
		return fmt.Sprintf("Constraint(%d)", int(c))
	}
}

// InputKind classifies job inputs.
type InputKind string

// Input kinds used by the built-in planner templates.
const (
	InputVideo InputKind = "video"
	InputText  InputKind = "text"
	InputUser  InputKind = "user-profile"
	InputTopic InputKind = "topic"
	InputDoc   InputKind = "document"
)

// Input is one typed job input with numeric attributes the planner uses to
// size work (durations, scene counts, token counts).
type Input struct {
	Name string
	Kind InputKind
	// Attrs is read-only once the job is built: inputs may share one map
	// (the daemon's decoder gives byte-identical attrs objects of a request
	// one map), so a change to one input's attributes needs a new map.
	Attrs map[string]float64
}

// Attr returns an attribute with a default.
func (in Input) Attr(key string, def float64) float64 {
	if v, ok := in.Attrs[key]; ok {
		return v
	}
	return def
}

// Job is the declarative workflow specification (Listing 2).
type Job struct {
	// Description is the natural-language job statement, e.g.
	// "List objects shown/mentioned in the videos".
	Description string
	// Inputs are the job's data items.
	Inputs []Input
	// Tasks are optional sub-task hints ("Extract frames from each video").
	// If absent or insufficient, the orchestrator LLM decomposes the
	// description itself.
	Tasks []string
	// Constraint is the optimization objective.
	Constraint Constraint
	// MinQuality optionally floors acceptable result quality in [0,1];
	// zero means no floor.
	MinQuality float64
}

// Validate checks the specification.
func (j Job) Validate() error {
	if strings.TrimSpace(j.Description) == "" {
		return fmt.Errorf("workflow: job without description")
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("workflow: job without inputs")
	}
	for i, in := range j.Inputs {
		if in.Name == "" {
			return fmt.Errorf("workflow: input %d without name", i)
		}
		if in.Kind == "" {
			return fmt.Errorf("workflow: input %q without kind", in.Name)
		}
	}
	if j.MinQuality < 0 || j.MinQuality > 1 {
		return fmt.Errorf("workflow: MinQuality %v outside [0,1]", j.MinQuality)
	}
	switch j.Constraint {
	case MinCost, MinLatency, MinPower, MaxQuality:
	default:
		return fmt.Errorf("workflow: unknown constraint %d", int(j.Constraint))
	}
	return nil
}

// VideoInput builds a video input: duration seconds split into scenes of
// sceneLen seconds with framesPerScene sampled frames each.
func VideoInput(name string, durationS float64, sceneLenS float64, framesPerScene int) Input {
	if sceneLenS <= 0 || durationS <= 0 || framesPerScene <= 0 {
		panic("workflow: non-positive video attributes")
	}
	scenes := durationS / sceneLenS
	if scenes != float64(int(scenes)) {
		scenes = float64(int(scenes) + 1)
	}
	return Input{
		Name: name,
		Kind: InputVideo,
		Attrs: map[string]float64{
			"duration_s":       durationS,
			"scene_len_s":      sceneLenS,
			"scenes":           scenes,
			"frames_per_scene": float64(framesPerScene),
		},
	}
}
