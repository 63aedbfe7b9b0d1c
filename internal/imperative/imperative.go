// Package imperative reproduces today's programming model — the paper's
// Listing 1, derived from OmAgent: explicit components bound to specific
// models, providers (API keys) and fixed resource amounts, executed in a
// rigid sequential flow. It is the evaluation baseline: "a fixed execution
// without any intra-task parallelism or opportunity to utilize idle
// resources. Each scene and its constituent frames are processed
// sequentially."
//
// The inefficiencies are structural, not simulated: every component holds
// its fixed allocation for the entire run (resource stranding), and scenes
// flow through the pipeline one at a time (no multiplexing) — which is
// exactly what Figure 3's baseline trace shows.
package imperative

import (
	"fmt"
	"slices"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/llmsim"
	"repro/internal/planner"
	"repro/internal/profiles"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vectordb"
	"repro/internal/workflow"
)

// Component is one pipeline stage with its explicit binding — the Listing 1
// Tool/MLModel/LLM constructors collapse to this struct.
type Component struct {
	// Display is the track name in traces ("Speech-to-Text").
	Display string
	// Impl names the concrete implementation ("whisper-large-v3").
	Impl string
	// Config is the fixed resource binding (Listing 1's resources={...}).
	Config profiles.ResourceConfig
	// Key decorates the component with its provider credential
	// (OPENAI_API_KEY and friends); unused by execution, present because
	// today's frameworks force it into the workflow definition.
	Key string
	// Params are model/tool-specific parameters (sampling_rate,
	// context_len, prompts...).
	Params map[string]string
}

// Tool constructs a tool component (Listing 1 line 2).
func Tool(display, impl string, cfg profiles.ResourceConfig, key string, params map[string]string) Component {
	return Component{Display: display, Impl: impl, Config: cfg, Key: key, Params: params}
}

// MLModel constructs an ML-model component (Listing 1 lines 3-4).
func MLModel(display, impl string, cfg profiles.ResourceConfig, key string) Component {
	return Component{Display: display, Impl: impl, Config: cfg, Key: key}
}

// LLM constructs an LLM component (Listing 1 lines 5-8).
func LLM(display, impl string, cfg profiles.ResourceConfig, key string, params map[string]string) Component {
	return Component{Display: display, Impl: impl, Config: cfg, Key: key, Params: params}
}

// VideoPipeline is the Listing 1 workflow:
// frame_ext -> stt -> obj_det -> summarize (with the §4 embeddings insert).
type VideoPipeline struct {
	FrameExtractor Component
	STT            Component
	ObjectDetector Component
	Summarizer     Component
	Embedder       Component
}

// DefaultVideoPipeline binds the paper's exact components: OpenCV on 1 CPU,
// Whisper on 1 GPU, CLIP on 2 CPUs, NVLM on 8 GPUs plus 2 embedding GPUs.
func DefaultVideoPipeline() VideoPipeline {
	return VideoPipeline{
		FrameExtractor: Tool("Frame Extraction", agents.ImplOpenCV,
			profiles.ResourceConfig{CPUCores: 1}, "ON_PREM_SSH_KEY",
			map[string]string{"sampling_rate": "15"}),
		STT: MLModel("Speech-to-Text", agents.ImplWhisper,
			profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}, "OPENAI_API_KEY"),
		ObjectDetector: MLModel("Object Detection", agents.ImplCLIP,
			profiles.ResourceConfig{CPUCores: 2}, "AWS_SSH_KEY"),
		Summarizer: LLM("LLM (Text)", agents.ImplNVLM,
			profiles.ResourceConfig{GPUs: 8, GPUType: hardware.GPUA100}, "DATABRICKS_API_KEY",
			map[string]string{
				"context_len":   "4096",
				"system_prompt": "You are an agent that can describe images in detail.",
				"user_prompt":   "Summarize the scenes using frames, detected objects and transcripts.",
			}),
		Embedder: LLM("LLM (Embeddings)", agents.ImplNVLMEmbed,
			profiles.ResourceConfig{GPUs: 2, GPUType: hardware.GPUA100}, "DATABRICKS_API_KEY", nil),
	}
}

// Runner executes VideoPipelines on a cluster.
type Runner struct {
	se  *sim.Engine
	cl  *cluster.Cluster
	lib *agents.Library
	cat *hardware.Catalog
	// docs is what the embedding stage has produced, in completion order.
	docs []vectordb.Doc
}

// embeddingDim is the dimension of the vectors the embedding stage produces.
const embeddingDim = 64

// NewRunner creates a baseline runner.
func NewRunner(se *sim.Engine, cl *cluster.Cluster, lib *agents.Library) *Runner {
	return &Runner{se: se, cl: cl, lib: lib, cat: cl.Catalog()}
}

// Documents returns what the embedding stage has produced so far — the §4
// setup's VectorDB of scene summaries — as a searchable index.
func (r *Runner) Documents() *vectordb.Index {
	ix, err := vectordb.NewIndex(embeddingDim, slices.Clone(r.docs))
	if err != nil {
		panic(err)
	}
	return ix
}

// scene is one unit of sequential processing.
type scene struct {
	video  string
	index  int
	audioS float64
	frames float64
}

// Run executes the pipeline over the videos and, when the simulation
// engine is run, completes with a report. It returns the report pointer
// immediately; fields are populated once the simulation drains.
func (r *Runner) Run(p VideoPipeline, videos []workflow.Input) (*report.Report, error) {
	var scenes []scene
	for _, v := range videos {
		if v.Kind != workflow.InputVideo {
			return nil, fmt.Errorf("imperative: input %q is %s, want video", v.Name, v.Kind)
		}
		n := int(v.Attr("scenes", 1))
		for s := 0; s < n; s++ {
			scenes = append(scenes, scene{
				video:  v.Name,
				index:  s,
				audioS: v.Attr("scene_len_s", 30),
				frames: v.Attr("frames_per_scene", 24),
			})
		}
	}
	if len(scenes) == 0 {
		return nil, fmt.Errorf("imperative: no scenes to process")
	}

	// Fixed provisioning: every component's resources are held for the
	// whole run, exactly as Listing 1 configures them.
	extAlloc, err := r.cl.AllocCPUs(p.FrameExtractor.Config.CPUCores)
	if err != nil {
		return nil, fmt.Errorf("imperative: frame extractor: %w", err)
	}
	sttAlloc, err := r.cl.AllocGPUs(p.STT.Config.GPUs, p.STT.Config.GPUType)
	if err != nil {
		return nil, fmt.Errorf("imperative: stt: %w", err)
	}
	detAlloc, err := r.cl.AllocCPUs(p.ObjectDetector.Config.CPUCores)
	if err != nil {
		return nil, fmt.Errorf("imperative: object detector: %w", err)
	}
	textAlloc, err := r.cl.AllocGPUs(p.Summarizer.Config.GPUs, p.Summarizer.Config.GPUType)
	if err != nil {
		return nil, fmt.Errorf("imperative: summarizer: %w", err)
	}
	textEngine, err := llmsim.NewEngine(r.se, r.cat, llmsim.NVLMText(), textAlloc)
	if err != nil {
		return nil, err
	}
	embedAlloc, err := r.cl.AllocGPUs(p.Embedder.Config.GPUs, p.Embedder.Config.GPUType)
	if err != nil {
		return nil, fmt.Errorf("imperative: embedder: %w", err)
	}
	embedEngine, err := llmsim.NewEngine(r.se, r.cat, llmsim.NVLMEmbed(), embedAlloc)
	if err != nil {
		return nil, err
	}

	tracer := telemetry.NewTracer()
	rep := &report.Report{Name: "baseline", Tracer: tracer}
	run := &baselineRun{
		r: r, p: p, scenes: scenes, tracer: tracer, rep: rep,
		extAlloc: extAlloc, sttAlloc: sttAlloc, detAlloc: detAlloc,
		textEngine: textEngine, embedEngine: embedEngine,
		release: func() {
			extAlloc.Release()
			sttAlloc.Release()
			detAlloc.Release()
			textAlloc.Release()
			embedAlloc.Release()
		},
	}
	run.processScene(0)
	return rep, nil
}

type baselineRun struct {
	r      *Runner
	p      VideoPipeline
	scenes []scene
	tracer *telemetry.Tracer
	rep    *report.Report

	extAlloc    *cluster.CPUAlloc
	sttAlloc    *cluster.GPUAlloc
	detAlloc    *cluster.CPUAlloc
	textEngine  *llmsim.Engine
	embedEngine *llmsim.Engine
	release     func()
}

// stepOn runs one fixed-allocation component for its ground-truth duration,
// driving intensity and tracing, then continues.
func (b *baselineRun) stepOn(display, impl string, cfg profiles.ResourceConfig, work float64,
	setIntensity func(float64), label string, next func()) {
	im, ok := b.r.lib.Get(impl)
	if !ok {
		panic(fmt.Sprintf("imperative: unknown implementation %q", impl))
	}
	dur, err := im.Perf.LatencyS(work, cfg, b.r.cat)
	if err != nil {
		panic(fmt.Sprintf("imperative: %s on %v: %v", impl, cfg, err))
	}
	span := b.tracer.Start(display, label, b.r.se.Now().Seconds())
	if cfg.GPUs > 0 {
		setIntensity(im.Perf.GPUIntensity)
	} else {
		setIntensity(im.Perf.CPUIntensity)
	}
	b.r.se.After(sim.Duration(dur), func() {
		setIntensity(0)
		b.tracer.End(span, b.r.se.Now().Seconds())
		b.rep.TasksCompleted++
		next()
	})
}

// processScene runs the strict per-scene chain:
// extract → stt → detect → summarize → embed → next scene.
func (b *baselineRun) processScene(i int) {
	if i == len(b.scenes) {
		b.finish()
		return
	}
	sc := b.scenes[i]
	label := fmt.Sprintf("%s/s%d", sc.video, sc.index)

	b.stepOn(b.p.FrameExtractor.Display, b.p.FrameExtractor.Impl, b.p.FrameExtractor.Config,
		sc.frames, b.extAlloc.SetIntensity, label, func() {
			b.stepOn(b.p.STT.Display, b.p.STT.Impl, b.p.STT.Config,
				sc.audioS, b.sttAlloc.SetIntensity, label, func() {
					b.stepOn(b.p.ObjectDetector.Display, b.p.ObjectDetector.Impl, b.p.ObjectDetector.Config,
						sc.frames, b.detAlloc.SetIntensity, label, func() {
							b.summarize(sc, label, i)
						})
				})
		})
}

func (b *baselineRun) summarize(sc scene, label string, i int) {
	span := b.tracer.Start(b.p.Summarizer.Display, label, b.r.se.Now().Seconds())
	b.textEngine.Submit(&llmsim.Request{
		ID:           "sum-" + label,
		PromptTokens: planner.SummarizePromptTokens,
		OutputTokens: planner.SummarizeOutputTokens,
		OnComplete: func(*llmsim.Request) {
			b.tracer.End(span, b.r.se.Now().Seconds())
			b.rep.TasksCompleted++
			b.embed(sc, label, i)
		},
	})
}

func (b *baselineRun) embed(sc scene, label string, i int) {
	span := b.tracer.Start(b.p.Embedder.Display, label, b.r.se.Now().Seconds())
	b.embedEngine.Submit(&llmsim.Request{
		ID:           "emb-" + label,
		PromptTokens: planner.EmbedTokens,
		OutputTokens: 0,
		OnComplete: func(*llmsim.Request) {
			b.tracer.End(span, b.r.se.Now().Seconds())
			b.rep.TasksCompleted++
			text := fmt.Sprintf("summary of %s scene %d", sc.video, sc.index)
			b.r.docs = append(b.r.docs, vectordb.Doc{ID: label, Vector: vectordb.Embed(text, embeddingDim), Text: text})
			b.processScene(i + 1)
		},
	})
}

func (b *baselineRun) finish() {
	b.release()
	b.rep.MakespanS = b.r.se.Now().Seconds()
	// Quality: the fixed bindings' implementation qualities, work-weighted
	// equally per stage.
	var q float64
	for _, impl := range []string{
		b.p.FrameExtractor.Impl, b.p.STT.Impl, b.p.ObjectDetector.Impl,
		b.p.Summarizer.Impl, b.p.Embedder.Impl,
	} {
		im, _ := b.r.lib.Get(impl)
		q += im.Quality
	}
	b.rep.Quality = q / 5
	// Baseline runs own a throwaway cluster that is never compacted, so the
	// window can't predate the watermark; a failure here is a programming
	// error, not an operational condition.
	if err := report.Finalize(b.rep, b.r.cl); err != nil {
		panic(err)
	}
}
