// Command ledger is the repo's performance ledger: four steady-state
// workloads driven through the public entry points of the serving path, nine
// gated end-to-end metrics (plus failed_frac), and a staged per-layer trace.
// See README.md in this directory.
//
//	go run ./bench/ledger -seed 11                 every workload, every metric
//	go run ./bench/ledger -repeat 5                median and quartiles over 5 seeds
//	go run ./bench/ledger -aa -repeat 5            two sets; non-zero exit if they disagree
//	go run ./bench/ledger -workload plan_cold ...  one contract run (see BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
	aa       bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the contract's one-line JSON result (default: the whole ledger)")
	flag.Int64Var(&o.seed, "seed", 11, "workload seed: the same seed gives the same request bodies")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "timed seconds per workload run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: with the traced pass (a contract run then prints the per-layer metrics); default both")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(os.TempDir(), "murakkab-ledger"), "directory for the span files and result.json")
	flag.IntVar(&o.repeat, "repeat", 1, "run the workloads N times (seeds seed..seed+N-1, alternating order) and report median and quartiles")
	flag.BoolVar(&o.aa, "aa", false, "run two such sets and exit non-zero if any end-to-end median differs by more than its bound")
	flag.Parse()
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case o.seconds <= 0 || o.repeat < 1:
		err = fmt.Errorf("-seconds and -repeat must be positive")
	case o.workload != "":
		err = contractRun(o)
	default:
		err = ledgerRun(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

// outcome is one workload measured once.
type outcome struct {
	attempted, failed int
	latencySamples    int
	calibrationNs     float64 // median raw calibration reading over the run
	stealFrac         float64 // share of the host's CPU time stolen during the run
	epochs, quiet     int     // epochs measured, and those without stolen time
	endToEnd          values
	perLayer          values // nil when the traced pass did not run
	violations        []string
}

// runWorkload measures one workload at one seed: the output checks, the
// untraced timed run, and (when traced) the traced pass.
func runWorkload(s spec, o options, seed int64, traced, determinism bool) (outcome, error) {
	var out outcome
	if determinism {
		out.violations = checkDeterminism(s, seed)
	}
	r := newRunner(s, seed)
	if err := r.measure(time.Duration(o.seconds * float64(time.Second))); err != nil {
		return out, err
	}
	out.attempted, out.failed, out.latencySamples = r.attempted, r.failed, r.done
	out.calibrationNs, out.stealFrac = median(r.timings().calibration), r.stealFrac
	out.epochs, out.quiet = len(r.all.setup), len(r.quiet.setup)
	out.violations = append(out.violations, r.checkRun()...)
	out.endToEnd = r.endToEnd()
	if !traced {
		return out, nil
	}
	L, err := tracedPass(s, seed, tracedJobs)
	if err != nil {
		// A traced pass that cannot finish is a correctness violation of the
		// build under test, not of the ledger's invocation.
		out.violations = append(out.violations, s.name+": traced pass: "+err.Error())
		out.perLayer = r.perLayer(nil)
		return out, nil
	}
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return out, err
	}
	if err := writeSpans(filepath.Join(o.traceOut, "spans-"+s.name+".jsonl"), L.spans); err != nil {
		return out, err
	}
	L.micro = microRuns()
	out.perLayer = r.perLayer(L)
	return out, nil
}

// contractRun is one run under BENCHMARK.json: one workload, and as the last
// line of standard output one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
func contractRun(o options) error {
	s, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	violations := checkPaperMetrics()
	out, err := runWorkload(s, o, o.seed, o.trace == 1, true)
	if err != nil {
		return err
	}
	violations = append(violations, out.violations...)
	defs, vals := endToEnd, out.endToEnd
	if o.trace == 1 {
		defs, vals = perLayer, out.perLayer
	}
	printMetrics(s.name, defs, vals)
	fmt.Printf("%s: %d latency samples; host calibration %.0f ns/op (times are scaled to %d); %.1f%% of its CPU time stolen, %d of %d epochs quiet\n",
		s.name, out.latencySamples, out.calibrationNs, refCalibrationNs, 100*out.stealFrac, out.quiet, out.epochs)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]measurement `json:"metrics"`
	}{len(violations) == 0, out.attempted, out.failed, render(defs, vals)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return violationError(violations)
}

func violationError(violations []string) error {
	if len(violations) == 0 {
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "ledger: violation:", v)
	}
	return fmt.Errorf("%d correctness violation(s)", len(violations))
}

func printMetrics(workload string, defs []metricDef, v values) {
	for _, d := range defs {
		fmt.Printf("%-12s %-34s %14.6g %s\n", workload, d.name, v[d.name], d.unit)
	}
}

// series collects one metric's values over the repeats of a set.
type series map[string]map[string][]float64 // workload → metric → values

func (s series) add(workload string, v values) {
	if s[workload] == nil {
		s[workload] = map[string][]float64{}
	}
	for name, x := range v {
		s[workload][name] = append(s[workload][name], x)
	}
}

// summary is a metric's distribution over the repeats of a set.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Bound  float64 `json:"bound,omitempty"`
	// Moves is the metric's definition (end to end) or the end-to-end metric
	// and workload it should move (per layer).
	Moves  string    `json:"moves"`
	Values []float64 `json:"values"`
}

// ledgerRun is the full ledger: every workload, every metric, -repeat times,
// a result file, and with -aa a second identical set to compare against.
func ledgerRun(o options) error {
	fp := hostFingerprint()
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, sim.ns_per_event %.1f\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.SimNsPerEvent)
	violations := checkPaperMetrics()
	sets := 1
	if o.aa {
		sets = 2
	}
	traced := o.trace != 0
	reported := append(slices.Clone(endToEnd), failedFrac)
	type setResult struct {
		EndToEnd map[string]map[string]summary `json:"end_to_end"`
		PerLayer map[string]map[string]summary `json:"per_layer,omitempty"`
	}
	result := struct {
		Host       fingerprint    `json:"host"`
		Seed       int64          `json:"seed"`
		Seconds    float64        `json:"seconds"`
		Repeat     int            `json:"repeat"`
		Attempted  map[string]int `json:"attempted"`
		Failed     map[string]int `json:"failed"`
		Sets       []setResult    `json:"sets"`
		Violations []string       `json:"violations"`
	}{Host: fp, Seed: o.seed, Seconds: o.seconds, Repeat: o.repeat, Attempted: map[string]int{}, Failed: map[string]int{}}
	for set := 0; set < sets; set++ {
		e2e, layer := series{}, series{}
		for rep := 0; rep < o.repeat; rep++ {
			order := slices.Clone(specs)
			if (rep+set)%2 == 1 {
				slices.Reverse(order)
			}
			for _, s := range order {
				out, err := runWorkload(s, o, o.seed+int64(rep), traced, set == 0 && rep == 0)
				if err != nil {
					return err
				}
				violations = append(violations, out.violations...)
				result.Attempted[s.name] += out.attempted
				result.Failed[s.name] += out.failed
				e2e.add(s.name, out.endToEnd)
				if out.perLayer != nil {
					layer.add(s.name, out.perLayer)
				}
				fmt.Printf("set %d repeat %d %s seed %d: %d attempted, %d failed, %d latency samples; %.1f%% of CPU time stolen, %d of %d epochs quiet\n",
					set, rep, s.name, o.seed+int64(rep), out.attempted, out.failed, out.latencySamples, 100*out.stealFrac, out.quiet, out.epochs)
			}
		}
		sr := setResult{EndToEnd: summarize(reported, e2e)}
		if traced {
			sr.PerLayer = summarize(perLayer, layer)
		}
		result.Sets = append(result.Sets, sr)
	}
	for i, sr := range result.Sets {
		fmt.Printf("\n== set %d: end to end (median [q1, q3] over %d run(s); bound)\n", i, o.repeat)
		printSummaries(reported, sr.EndToEnd)
		if sr.PerLayer != nil {
			fmt.Printf("\n== set %d: per layer\n", i)
			printSummaries(perLayer, sr.PerLayer)
		}
	}
	if o.aa {
		violations = append(violations, compareSets(result.Sets[0].EndToEnd, result.Sets[1].EndToEnd)...)
	}
	result.Violations = violations
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceOut, "result.json")
	b, err := json.MarshalIndent(result, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresult: %s\n", path)
	return violationError(violations)
}

func summarize(defs []metricDef, s series) map[string]map[string]summary {
	out := map[string]map[string]summary{}
	for _, sp := range specs {
		out[sp.name] = map[string]summary{}
		for _, d := range defs {
			xs := s[sp.name][d.name]
			q1, q2, q3 := quartiles(xs)
			out[sp.name][d.name] = summary{Unit: d.unit, Median: q2, Q1: q1, Q3: q3, Bound: d.bound, Moves: d.moves, Values: xs}
		}
	}
	return out
}

func printSummaries(defs []metricDef, sum map[string]map[string]summary) {
	for _, sp := range specs {
		for _, d := range defs {
			m := sum[sp.name][d.name]
			bound := ""
			if d.bound > 0 {
				bound = fmt.Sprintf("  ±%.0f%%", 100*d.bound)
			}
			fmt.Printf("%-12s %-34s %14.6g [%.6g, %.6g] %s%s\n", sp.name, d.name, m.Median, m.Q1, m.Q3, d.unit, bound)
		}
	}
}

// compareSets is the A/A check: two sets of runs of the same code must agree
// on every end-to-end median within the metric's bound, in either direction.
func compareSets(a, b map[string]map[string]summary) []string {
	var bad []string
	for _, sp := range specs {
		for _, d := range endToEnd {
			x, y := a[sp.name][d.name].Median, b[sp.name][d.name].Median
			if x == 0 || y == 0 {
				bad = append(bad, fmt.Sprintf("A/A: %s %s read 0", sp.name, d.name))
			} else if diff := (y - x) / x; diff > d.bound || diff < -d.bound {
				bad = append(bad, fmt.Sprintf("A/A: %s %s medians %.6g vs %.6g differ by %.1f%% (bound %.0f%%)",
					sp.name, d.name, x, y, 100*diff, 100*d.bound))
			}
		}
	}
	return bad
}
