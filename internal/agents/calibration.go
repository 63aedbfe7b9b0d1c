package agents

import (
	"sync"

	"repro/internal/hardware"
)

// This file defines the default agent library with its calibration
// constants. Work units per capability:
//
//	frame-extraction    frames
//	speech-to-text      seconds of audio
//	object-detection    frames
//	scene-summarization tokens (prompt+completion, weighted)
//	embedding           tokens
//	question-answering  tokens
//	sentiment-analysis  documents
//	web-search          queries
//	ranking             items
//	calculator          expressions
//
// The constants are calibrated so the §4 Video Understanding workflow lands
// near the paper's absolute numbers (baseline ≈ 283 s; Murakkab 77–83 s;
// 34–43 Wh GPU energy). Relative behaviour — which config is fastest,
// which is cheapest, where GPUs beat CPUs — is emergent, not hard-coded:
// these are per-unit processing rates, not per-experiment outcomes.
// testdata/experiments.golden records paper-vs-measured for every cell.

// Implementation names (referenced by the planner templates and tests).
const (
	ImplOpenCV        = "opencv-frame-extractor"
	ImplDALI          = "dali-frame-extractor"
	ImplWhisper       = "whisper-large-v3"
	ImplFastConformer = "fast-conformer"
	ImplDeepSpeech    = "deepspeech"
	ImplCLIP          = "clip-vit-l"
	ImplSigLIP        = "siglip-so400m"
	ImplNVLM          = "nvlm-d-72b"
	ImplLlama8B       = "llama-3.1-8b"
	ImplLlama70B      = "llama-3.1-70b"
	ImplNVLMEmbed     = "nvlm-embed"
	ImplMiniLMEmbed   = "minilm-embed"
	ImplDistilSent    = "distilbert-sentiment"
	ImplWebSearch     = "web-search"
	ImplBM25Rank      = "bm25-ranker"
	ImplCalculator    = "calculator"
)

// DefaultLibrary returns the agent library used throughout the evaluation.
// The registry content is built once per process into an immutable template;
// each call hands back a cheap independent copy sharing the implementation
// values and the memoized fingerprint/prompt/sorted views (see copyShared),
// so constructing a testbed no longer re-registers and re-renders the whole
// catalog. Registering additional implementations on a returned library
// affects only that copy.
func DefaultLibrary() *Library {
	defaultLibOnce.Do(func() {
		l := buildDefaultLibrary()
		// Warm every memoized view so copies inherit them fully rendered.
		l.Fingerprint()
		l.SystemPrompt()
		for _, c := range l.Capabilities() {
			l.byCapabilitySorted(c)
		}
		defaultLibTemplate = l
	})
	return defaultLibTemplate.copyShared()
}

var (
	defaultLibOnce     sync.Once
	defaultLibTemplate *Library
)

// buildDefaultLibrary registers the calibrated default catalog from scratch.
func buildDefaultLibrary() *Library {
	l := NewLibrary()

	// --- frame extraction ---------------------------------------------
	l.MustRegister(Implementation{
		Name: ImplOpenCV, Capability: CapFrameExtraction, Kind: KindTool,
		Quality: 1.0,
		Perf: PerfModel{
			BaseS:          0.10,
			CPUCoreUnitS:   0.065, // 24-frame scene on 1 core ≈ 1.7 s
			CPUParallelExp: 0.85,
			CPUIntensity:   0.95,
			MinCores:       1, MaxCores: 32,
		},
		Args: []ArgSpec{
			{Name: "file", Type: "path", Required: true},
			{Name: "start_time", Type: "float", Required: false},
			{Name: "end_time", Type: "float", Required: false},
			{Name: "num_frames", Type: "int", Required: true},
			{Name: "sampling_rate", Type: "int", Required: false},
		},
	})
	l.MustRegister(Implementation{
		Name: ImplDALI, Capability: CapFrameExtraction, Kind: KindTool,
		Quality: 1.0,
		Perf: PerfModel{
			BaseS:          0.25, // GPU context setup dominates small jobs
			GPUUnitS:       0.004,
			GPUParallelExp: 0.9,
			GPUIntensity:   0.60,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 1,
		},
		Args: []ArgSpec{
			{Name: "file", Type: "path", Required: true},
			{Name: "num_frames", Type: "int", Required: true},
		},
	})

	// --- speech-to-text -------------------------------------------------
	// Whisper supports all three Table 2 configurations: GPU, CPU and
	// GPU+CPU (rates add).
	l.MustRegister(Implementation{
		Name: ImplWhisper, Capability: CapSpeechToText, Kind: KindMLModel,
		ParamsB: 1.5, Quality: 0.95,
		Perf: PerfModel{
			BaseS:          0.30,
			GPUUnitS:       0.100, // RTF ≈ 10× realtime on one A100 (batched decode)
			CPUCoreUnitS:   7.6,   // RTF ≈ 0.13× per core; 64 cores ≈ 5.6×
			GPUParallelExp: 0.90,
			CPUParallelExp: 0.90,
			GPUIntensity:   0.92,
			CPUIntensity:   0.98,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 2,
			MinCores: 4, MaxCores: 64,
		},
		Args: []ArgSpec{
			{Name: "file", Type: "path", Required: true},
			{Name: "language", Type: "string", Required: false},
		},
	})
	l.MustRegister(Implementation{
		Name: ImplFastConformer, Capability: CapSpeechToText, Kind: KindMLModel,
		ParamsB: 0.6, Quality: 0.93,
		Perf: PerfModel{
			BaseS:          0.20,
			GPUUnitS:       0.055, // linearly-scalable attention: ~2.3× Whisper GPU rate
			GPUParallelExp: 0.90,
			GPUIntensity:   0.88,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 2,
		},
		Args: []ArgSpec{{Name: "file", Type: "path", Required: true}},
	})
	l.MustRegister(Implementation{
		Name: ImplDeepSpeech, Capability: CapSpeechToText, Kind: KindMLModel,
		ParamsB: 0.12, Quality: 0.82,
		Perf: PerfModel{
			BaseS:          0.20,
			CPUCoreUnitS:   4.2,
			CPUParallelExp: 0.88,
			CPUIntensity:   0.95,
			MinCores:       2, MaxCores: 32,
		},
		Args: []ArgSpec{{Name: "file", Type: "path", Required: true}},
	})

	// --- object detection ------------------------------------------------
	l.MustRegister(Implementation{
		Name: ImplCLIP, Capability: CapObjectDetection, Kind: KindMLModel,
		ParamsB: 0.43, Quality: 0.90,
		Perf: PerfModel{
			BaseS:          0.15,
			GPUUnitS:       0.006,
			CPUCoreUnitS:   0.22, // 24-frame scene on 2 cores ≈ 3.1 s
			GPUParallelExp: 0.9,
			CPUParallelExp: 0.85,
			GPUIntensity:   0.75,
			CPUIntensity:   0.95,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 1,
			MinCores: 1, MaxCores: 16,
		},
		Args: []ArgSpec{
			{Name: "frames", Type: "string", Required: true},
			{Name: "labels", Type: "string", Required: false},
		},
	})
	l.MustRegister(Implementation{
		Name: ImplSigLIP, Capability: CapObjectDetection, Kind: KindMLModel,
		ParamsB: 0.88, Quality: 0.93,
		Perf: PerfModel{
			BaseS:          0.15,
			GPUUnitS:       0.005,
			GPUParallelExp: 0.9,
			GPUIntensity:   0.80,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 1,
		},
		Args: []ArgSpec{{Name: "frames", Type: "string", Required: true}},
	})

	// --- LLMs (served by internal/llmsim engines at runtime) -------------
	l.MustRegister(Implementation{
		Name: ImplNVLM, Capability: CapSummarization, Kind: KindLLM,
		ParamsB: 72, Quality: 0.96,
		Perf: PerfModel{
			BaseS:          0.05,
			GPUUnitS:       0.055, // 8 GPUs^0.9 ≈ 6.5× → ≈ 118 tok/s single-stream
			GPUParallelExp: 0.90,
			GPUIntensity:   0.85,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        4, MaxGPUs: 8,
		},
		Args: []ArgSpec{
			{Name: "system_prompt", Type: "string", Required: false},
			{Name: "user_prompt", Type: "string", Required: true},
			{Name: "context_len", Type: "int", Required: false},
		},
	})
	l.MustRegister(Implementation{
		Name: ImplLlama70B, Capability: CapSummarization, Kind: KindLLM,
		ParamsB: 70, Quality: 0.94,
		Perf: PerfModel{
			BaseS:          0.05,
			GPUUnitS:       0.050,
			GPUParallelExp: 0.90,
			GPUIntensity:   0.85,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        4, MaxGPUs: 8,
		},
		Args: []ArgSpec{{Name: "user_prompt", Type: "string", Required: true}},
	})
	l.MustRegister(Implementation{
		Name: ImplLlama8B, Capability: CapSummarization, Kind: KindLLM,
		ParamsB: 8, Quality: 0.85,
		Perf: PerfModel{
			BaseS:          0.05,
			GPUUnitS:       0.0040, // ≈ 250 tok/s on one A100
			CPUCoreUnitS:   0.90,   // runnable on CPU but impractically slow
			GPUParallelExp: 0.90,
			CPUParallelExp: 0.85,
			GPUIntensity:   0.80,
			CPUIntensity:   1.0,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 2,
			MinCores: 16, MaxCores: 64,
		},
		Args: []ArgSpec{{Name: "user_prompt", Type: "string", Required: true}},
	})

	// --- embeddings -------------------------------------------------------
	l.MustRegister(Implementation{
		Name: ImplNVLMEmbed, Capability: CapEmbedding, Kind: KindLLM,
		ParamsB: 7, Quality: 0.95,
		Perf: PerfModel{
			BaseS:          0.02,
			GPUUnitS:       0.0011, // ≈ 1800 tok/s across the paper's 2-GPU deployment
			GPUParallelExp: 0.95,
			GPUIntensity:   0.55,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 2,
		},
		Args: []ArgSpec{{Name: "text", Type: "string", Required: true}},
	})
	l.MustRegister(Implementation{
		Name: ImplMiniLMEmbed, Capability: CapEmbedding, Kind: KindMLModel,
		ParamsB: 0.033, Quality: 0.84,
		Perf: PerfModel{
			BaseS:          0.02,
			CPUCoreUnitS:   0.012,
			CPUParallelExp: 0.9,
			CPUIntensity:   0.95,
			MinCores:       1, MaxCores: 16,
		},
		Args: []ArgSpec{{Name: "text", Type: "string", Required: true}},
	})

	// --- question answering ----------------------------------------------
	l.MustRegister(Implementation{
		Name: "nvlm-d-72b-qa", Capability: CapQA, Kind: KindLLM,
		ParamsB: 72, Quality: 0.95,
		Perf: PerfModel{
			BaseS:          0.05,
			GPUUnitS:       0.055,
			GPUParallelExp: 0.90,
			GPUIntensity:   0.85,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        4, MaxGPUs: 8,
		},
		Args: []ArgSpec{{Name: "question", Type: "string", Required: true}},
	})

	// --- sentiment --------------------------------------------------------
	l.MustRegister(Implementation{
		Name: ImplDistilSent, Capability: CapSentiment, Kind: KindMLModel,
		ParamsB: 0.066, Quality: 0.88,
		Perf: PerfModel{
			BaseS:          0.05,
			CPUCoreUnitS:   0.08,
			CPUParallelExp: 0.9,
			CPUIntensity:   0.9,
			MinCores:       1, MaxCores: 8,
		},
		Args: []ArgSpec{{Name: "text", Type: "string", Required: true}},
	})
	l.MustRegister(Implementation{
		Name: "llama-8b-sentiment", Capability: CapSentiment, Kind: KindLLM,
		ParamsB: 8, Quality: 0.93,
		Perf: PerfModel{
			BaseS:          0.05,
			GPUUnitS:       0.30, // ~75 docs-to-tokens equivalent
			GPUParallelExp: 0.9,
			GPUIntensity:   0.75,
			RefGPU:         hardware.GPUA100,
			MinGPUs:        1, MaxGPUs: 1,
		},
		Args: []ArgSpec{{Name: "text", Type: "string", Required: true}},
	})

	// --- tools --------------------------------------------------------------
	l.MustRegister(Implementation{
		Name: ImplWebSearch, Capability: CapWebSearch, Kind: KindTool,
		Quality: 0.90,
		Perf: PerfModel{
			BaseS:          0.40, // network round trip
			CPUCoreUnitS:   0.10,
			CPUParallelExp: 1.0,
			CPUIntensity:   0.20,
			MinCores:       1, MaxCores: 4,
		},
		Args: []ArgSpec{
			{Name: "query", Type: "string", Required: true},
			{Name: "top_k", Type: "int", Required: false},
		},
	})
	l.MustRegister(Implementation{
		Name: ImplBM25Rank, Capability: CapRanking, Kind: KindTool,
		Quality: 0.85,
		Perf: PerfModel{
			BaseS:          0.02,
			CPUCoreUnitS:   0.004,
			CPUParallelExp: 0.95,
			CPUIntensity:   0.9,
			MinCores:       1, MaxCores: 8,
		},
		Args: []ArgSpec{{Name: "items", Type: "string", Required: true}},
	})
	l.MustRegister(Implementation{
		Name: ImplCalculator, Capability: CapCalculator, Kind: KindTool,
		Quality: 1.0,
		Perf: PerfModel{
			BaseS:          0.001,
			CPUCoreUnitS:   0.0005,
			CPUParallelExp: 1.0,
			CPUIntensity:   0.5,
			MinCores:       1, MaxCores: 1,
		},
		Args: []ArgSpec{{Name: "expression", Type: "string", Required: true}},
	})

	return l
}
