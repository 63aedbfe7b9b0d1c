package workload

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func faultSpec() FaultSpec {
	return FaultSpec{
		EngineCrashRate:  0.01,
		WorkerLossRate:   0.01,
		StageTimeoutRate: 0.02,
		CallErrorRate:    0.05,
		StallS:           60,
		CrashReloadS:     8,
		HorizonS:         2000,
		Seed:             42,
	}
}

func TestFaultTraceDeterministicAndOrdered(t *testing.T) {
	a, err := FaultTrace(faultSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultTrace(faultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty fault trace at these rates over 2000s")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs produced different traces")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].AtS < a[j].AtS }) {
		t.Fatal("fault trace not time-sorted")
	}
	kinds := map[FaultKind]int{}
	for _, ev := range a {
		kinds[ev.Kind]++
		if ev.AtS < 0 || ev.AtS >= faultSpec().HorizonS {
			t.Fatalf("event at %v outside [0, %v)", ev.AtS, faultSpec().HorizonS)
		}
		if ev.Pick < 0 || ev.Pick >= 1 {
			t.Fatalf("pick %v outside [0,1)", ev.Pick)
		}
		switch ev.Kind {
		case FaultEngineCrash:
			if ev.DurationS != 8 {
				t.Fatalf("crash event carries reload %v, want 8", ev.DurationS)
			}
		case FaultStageTimeout:
			if ev.DurationS != 60 {
				t.Fatalf("stall event carries %v, want 60", ev.DurationS)
			}
		default:
			if ev.DurationS != 0 {
				t.Fatalf("%s event carries duration %v, want 0", ev.Kind, ev.DurationS)
			}
		}
	}
	for _, k := range []FaultKind{FaultEngineCrash, FaultWorkerLoss, FaultStageTimeout, FaultCallError} {
		if kinds[k] == 0 {
			t.Fatalf("no %s events in a 2000s trace", k)
		}
	}
}

func TestFaultTraceSeedChangesTrace(t *testing.T) {
	spec := faultSpec()
	a, err := FaultTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed++
	b, err := FaultTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFaultTraceErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FaultSpec)
	}{
		{"zero horizon", func(s *FaultSpec) { s.HorizonS = 0 }},
		{"negative rate", func(s *FaultSpec) { s.CallErrorRate = -1 }},
		{"all rates zero", func(s *FaultSpec) {
			s.EngineCrashRate, s.WorkerLossRate, s.StageTimeoutRate, s.CallErrorRate = 0, 0, 0, 0
		}},
		{"timeouts without stall", func(s *FaultSpec) { s.StallS = 0 }},
		{"NaN stall", func(s *FaultSpec) { s.StallS = math.NaN() }},
		{"infinite rate", func(s *FaultSpec) { s.CallErrorRate = math.Inf(1) }},
		{"NaN rate", func(s *FaultSpec) { s.WorkerLossRate = math.NaN() }},
		{"rate past the event bound", func(s *FaultSpec) { s.CallErrorRate = maxFaultEvents/s.HorizonS + 1 }},
		{"infinite horizon", func(s *FaultSpec) { s.HorizonS = math.Inf(1) }},
		{"NaN horizon", func(s *FaultSpec) { s.HorizonS = math.NaN() }},
		{"negative reload", func(s *FaultSpec) { s.CrashReloadS = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := faultSpec()
			tc.mut(&spec)
			if _, err := FaultTrace(spec); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestFaultKindString(t *testing.T) {
	want := map[FaultKind]string{
		FaultEngineCrash:  "engine-crash",
		FaultWorkerLoss:   "worker-loss",
		FaultStageTimeout: "stage-timeout",
		FaultCallError:    "call-error",
		FaultKind(99):     "FaultKind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// FuzzFaultTrace: for any rates, horizon and stall, FaultTrace either refuses
// the spec or returns a trace that is sorted, lies within [0, HorizonS) and
// holds at most maxFaultEvents events — and it returns at all.
func FuzzFaultTrace(f *testing.F) {
	f.Add(0.01, 0.01, 0.02, 0.05, 60.0, 8.0, 2000.0, int64(42))
	f.Add(math.Inf(1), 0.0, 0.0, 0.0, 60.0, 8.0, 86400.0, int64(1))
	f.Add(0.2, math.NaN(), 0.2, 0.2, 60.0, 8.0, 86400.0, int64(2))
	f.Add(1e300, 1e300, 1e300, 1e300, 60.0, 8.0, 86400.0, int64(3))
	f.Add(0.1, 0.0, 0.0, 0.0, 60.0, 8.0, math.Inf(1), int64(4))
	f.Add(0.0, 0.0, 1.0, 0.0, math.NaN(), 8.0, 100.0, int64(5))
	f.Fuzz(func(t *testing.T, crash, loss, timeout, callErr, stall, reload, horizon float64, seed int64) {
		spec := FaultSpec{
			EngineCrashRate: crash, WorkerLossRate: loss, StageTimeoutRate: timeout, CallErrorRate: callErr,
			StallS: stall, CrashReloadS: reload, HorizonS: horizon, Seed: seed,
		}
		out, err := FaultTrace(spec)
		if err != nil {
			return
		}
		if len(out) > maxFaultEvents {
			t.Fatalf("%d events, bound %d", len(out), maxFaultEvents)
		}
		for i, ev := range out {
			if !(ev.AtS >= 0 && ev.AtS < horizon) {
				t.Fatalf("event %d at %v, outside [0, %v)", i, ev.AtS, horizon)
			}
			if i > 0 && ev.AtS < out[i-1].AtS {
				t.Fatalf("event %d at %v precedes event %d at %v", i, ev.AtS, i-1, out[i-1].AtS)
			}
		}
	})
}
