package agents

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/profiles"
)

var cat = hardware.DefaultCatalog()

func whisper(t *testing.T) *Implementation {
	t.Helper()
	im, ok := DefaultLibrary().Get(ImplWhisper)
	if !ok {
		t.Fatal("default library missing whisper")
	}
	return im
}

func TestPerfModelGPURate(t *testing.T) {
	w := whisper(t)
	cfg := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}
	rate, err := w.Perf.Rate(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / w.Perf.GPUUnitS
	if math.Abs(rate-want) > 1e-9 {
		t.Fatalf("1-GPU rate = %v, want %v", rate, want)
	}
}

func TestPerfModelCPUScalingSublinear(t *testing.T) {
	w := whisper(t)
	r16, _ := w.Perf.Rate(profiles.ResourceConfig{CPUCores: 16}, cat)
	r64, _ := w.Perf.Rate(profiles.ResourceConfig{CPUCores: 64}, cat)
	speedup := r64 / r16
	if speedup >= 4 {
		t.Fatalf("64/16-core speedup = %v, want sublinear (<4)", speedup)
	}
	if speedup <= 1 {
		t.Fatalf("64/16-core speedup = %v, want >1", speedup)
	}
}

func TestPerfModelHybridRatesAdd(t *testing.T) {
	w := whisper(t)
	gpu := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}
	cpu := profiles.ResourceConfig{CPUCores: 32}
	hybrid := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100, CPUCores: 32}
	rg, _ := w.Perf.Rate(gpu, cat)
	rc, _ := w.Perf.Rate(cpu, cat)
	rh, _ := w.Perf.Rate(hybrid, cat)
	if math.Abs(rh-(rg+rc)) > 1e-9 {
		t.Fatalf("hybrid rate %v != GPU %v + CPU %v", rh, rg, rc)
	}
}

func TestPerfModelGPUGenerationSpeedup(t *testing.T) {
	w := whisper(t)
	a := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}
	h := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUH100}
	la, _ := w.Perf.LatencyS(100, a, cat)
	lh, _ := w.Perf.LatencyS(100, h, cat)
	if lh >= la {
		t.Fatalf("H100 latency %v not below A100 %v (Table 1 GPU-generation lever)", lh, la)
	}
}

func TestPerfModelEnvelopeRejected(t *testing.T) {
	w := whisper(t)
	bad := []profiles.ResourceConfig{
		{GPUs: 4, GPUType: hardware.GPUA100}, // MaxGPUs is 2
		{CPUCores: 2},                        // MinCores is 4
		{CPUCores: 128},                      // MaxCores is 64
		{},                                   // empty
	}
	for _, cfg := range bad {
		if _, err := w.Perf.Rate(cfg, cat); err == nil {
			t.Errorf("config %v accepted, want rejection", cfg)
		}
	}
}

func TestGPUOnlyModelRejectsCPU(t *testing.T) {
	lib := DefaultLibrary()
	fc, _ := lib.Get(ImplFastConformer)
	if _, err := fc.Perf.Rate(profiles.ResourceConfig{CPUCores: 8}, cat); err == nil {
		t.Fatal("GPU-only model accepted a CPU config")
	}
}

func TestLatencyDecreasesWithWork(t *testing.T) {
	w := whisper(t)
	cfg := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}
	l30, _ := w.Perf.LatencyS(30, cfg, cat)
	l60, _ := w.Perf.LatencyS(60, cfg, cat)
	if l60 <= l30 {
		t.Fatalf("latency not increasing in work: %v vs %v", l30, l60)
	}
	// 30 s of audio on one A100 at RTF ≈ 8 should take ≈ 4 s (baseline's
	// per-scene STT time in our Figure 3 reproduction).
	if l30 < 3 || l30 > 6 {
		t.Fatalf("whisper 30s-audio GPU latency = %v, want ≈ 4 s", l30)
	}
}

func TestCandidateConfigsCoverTable2(t *testing.T) {
	w := whisper(t)
	configs := w.CandidateConfigs(cat)
	var hasGPU, hasCPU64, hasHybrid bool
	for _, c := range configs {
		if c.GPUs == 1 && c.GPUType == hardware.GPUA100 && c.CPUCores == 0 {
			hasGPU = true
		}
		if c.GPUs == 0 && c.CPUCores == 64 {
			hasCPU64 = true
		}
		if c.GPUs == 1 && c.CPUCores == 32 && c.GPUType == hardware.GPUA100 {
			hasHybrid = true
		}
	}
	if !hasGPU || !hasCPU64 || !hasHybrid {
		t.Fatalf("candidate configs missing a Table 2 configuration: gpu=%v cpu64=%v hybrid=%v\n%v",
			hasGPU, hasCPU64, hasHybrid, configs)
	}
	// All candidates must be in-envelope.
	for _, c := range configs {
		if !w.Perf.SupportsConfig(c) {
			t.Errorf("candidate %v outside envelope", c)
		}
	}
}

func TestImplementationValidate(t *testing.T) {
	good := Implementation{
		Name: "x", Capability: CapCalculator, Kind: KindTool, Quality: 0.5,
		Perf: PerfModel{CPUCoreUnitS: 1, CPUParallelExp: 1, MinCores: 1, MaxCores: 1},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid implementation rejected: %v", err)
	}
	bad := good
	bad.Quality = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("quality > 1 accepted")
	}
	bad = good
	bad.Kind = "bogus"
	if err := bad.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = good
	bad.Perf = PerfModel{}
	if err := bad.Validate(); err == nil {
		t.Error("no-device perf model accepted")
	}
}

func TestDefaultLibraryShape(t *testing.T) {
	lib := DefaultLibrary()
	if lib.Len() < 15 {
		t.Fatalf("library has %d implementations, want >= 15", lib.Len())
	}
	// The paper's §3.2 example: Speech-to-Text implementable by Whisper,
	// DeepSpeech, Fast Conformer.
	stt := lib.ByCapability(CapSpeechToText)
	if len(stt) != 3 {
		t.Fatalf("STT implementations = %d, want 3", len(stt))
	}
	names := map[string]bool{}
	for _, im := range stt {
		names[im.Name] = true
	}
	for _, want := range []string{ImplWhisper, ImplFastConformer, ImplDeepSpeech} {
		if !names[want] {
			t.Errorf("STT missing %s", want)
		}
	}
}

func TestQualityOrderingWithinSTT(t *testing.T) {
	lib := DefaultLibrary()
	w, _ := lib.Get(ImplWhisper)
	f, _ := lib.Get(ImplFastConformer)
	d, _ := lib.Get(ImplDeepSpeech)
	if !(w.Quality > f.Quality && f.Quality > d.Quality) {
		t.Fatalf("STT quality ordering broken: whisper %v, fastconformer %v, deepspeech %v",
			w.Quality, f.Quality, d.Quality)
	}
	// Table 1 "Model/Tool: more parameters → higher quality".
	if !(w.ParamsB > f.ParamsB && f.ParamsB > d.ParamsB) {
		t.Fatal("params not ordered with quality")
	}
}

func TestLibraryRegisterDuplicate(t *testing.T) {
	lib := NewLibrary()
	im := Implementation{
		Name: "x", Capability: CapCalculator, Kind: KindTool, Quality: 1,
		Perf: PerfModel{CPUCoreUnitS: 1, CPUParallelExp: 1, MinCores: 1, MaxCores: 1},
	}
	if err := lib.Register(im); err != nil {
		t.Fatal(err)
	}
	if err := lib.Register(im); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestSystemPromptListsAgents(t *testing.T) {
	sp := DefaultLibrary().SystemPrompt()
	for _, want := range []string{ImplWhisper, ImplCLIP, ImplNVLM, "capability=speech-to-text"} {
		if !strings.Contains(sp, want) {
			t.Errorf("system prompt missing %q", want)
		}
	}
}

func TestToolCallString(t *testing.T) {
	tc := ToolCall{Agent: "FrameExtractor", Args: dag.Meta{
		"num_frames", "10", "file", "cats.mov",
	}}
	got := tc.String()
	want := `FrameExtractor(file="cats.mov", num_frames="10")`
	if got != want {
		t.Fatalf("ToolCall.String() = %q, want %q", got, want)
	}
}

func TestValidateCall(t *testing.T) {
	lib := DefaultLibrary()
	ok := ToolCall{Agent: ImplOpenCV, Args: dag.Meta{
		"file", "cats.mov", "num_frames", "24",
	}}
	if err := lib.ValidateCall(ok); err != nil {
		t.Fatalf("valid call rejected: %v", err)
	}
	cases := []ToolCall{
		{Agent: "no-such-agent", Args: dag.Meta{}},
		{Agent: ImplOpenCV, Args: dag.Meta{"num_frames", "24"}},                       // missing file
		{Agent: ImplOpenCV, Args: dag.Meta{"file", "x", "num_frames", "ten"}},         // bad int
		{Agent: ImplOpenCV, Args: dag.Meta{"file", "x", "num_frames", "1", "z", "1"}}, // unknown arg
	}
	for i, tc := range cases {
		if err := lib.ValidateCall(tc); err == nil {
			t.Errorf("case %d: invalid call accepted: %v", i, tc)
		}
	}
}

func TestProfilerRecoversGroundTruth(t *testing.T) {
	w := whisper(t)
	p := NewProfiler(cat)
	cfg := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}
	prof, err := p.ProfileImplementation(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, work := range []float64{1, 30, 480} {
		truth, _ := w.Perf.LatencyS(work, cfg, cat)
		est := prof.LatencyS(work)
		if math.Abs(truth-est) > 1e-6*truth+1e-9 {
			t.Fatalf("work %v: profile %v vs truth %v", work, est, truth)
		}
	}
	if prof.Quality != w.Quality {
		t.Fatalf("profile quality %v != impl quality %v", prof.Quality, w.Quality)
	}
	if prof.GPUIntensity != w.Perf.GPUIntensity {
		t.Fatal("profile GPU intensity not carried over")
	}
	if p.Probes() != 2 {
		t.Fatalf("probes = %d, want 2", p.Probes())
	}
}

func TestProfileLibraryCoversEverything(t *testing.T) {
	lib := DefaultLibrary()
	store, err := NewProfiler(cat).ProfileLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lib.Capabilities() {
		for _, im := range lib.ByCapability(c) {
			if len(store.ForImplementation(im.Name)) == 0 {
				t.Errorf("no profiles for %s", im.Name)
			}
		}
	}
	// Every candidate config of whisper must be present.
	w, _ := lib.Get(ImplWhisper)
	for _, cfg := range w.CandidateConfigs(cat) {
		if _, ok := store.Get(ImplWhisper, cfg); !ok {
			t.Errorf("missing whisper profile for %v", cfg)
		}
	}
}

func TestTable2ShapeFromProfiles(t *testing.T) {
	// The three whisper configs must reproduce the Table 2 ordering on a
	// 480-second audio workload: CPU slowest but lowest energy, GPU fastest,
	// hybrid fastest-or-equal with energy between CPU and GPU.
	w := whisper(t)
	p := NewProfiler(cat)
	gpuCfg := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}
	cpuCfg := profiles.ResourceConfig{CPUCores: 64}
	hybCfg := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100, CPUCores: 32}

	profGPU, _ := p.ProfileImplementation(w, gpuCfg)
	profCPU, _ := p.ProfileImplementation(w, cpuCfg)
	profHyb, _ := p.ProfileImplementation(w, hybCfg)

	const work = 480 // 16 scenes × 30 s
	latGPU := profGPU.LatencyS(work)
	latCPU := profCPU.LatencyS(work)
	latHyb := profHyb.LatencyS(work)
	if !(latCPU > latGPU) {
		t.Fatalf("CPU STT (%.1fs) not slower than GPU (%.1fs)", latCPU, latGPU)
	}
	if latHyb > latGPU {
		t.Fatalf("hybrid STT (%.1fs) slower than GPU-only (%.1fs)", latHyb, latGPU)
	}
	eGPU := profGPU.EnergyJ(cat, hardware.EPYC7V12, work)
	eCPU := profCPU.EnergyJ(cat, hardware.EPYC7V12, work)
	if !(eCPU < eGPU) {
		t.Fatalf("CPU STT energy (%.0fJ) not below GPU (%.0fJ)", eCPU, eGPU)
	}
}
