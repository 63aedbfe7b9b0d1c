package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// stdlibDecodeJobRequest is DecodeJobRequest as it stood before the
// hand-written parser — encoding/json straight off the bounded body — kept
// here as the oracle: the status code and error text of every refusal, and the
// JobRequest of every acceptance, must be the ones it gives.
func stdlibDecodeJobRequest(w http.ResponseWriter, r *http.Request, req *JobRequest) (Reply, bool) {
	*req = JobRequest{}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return Reply{Code: http.StatusRequestEntityTooLarge, Err: fmt.Errorf(
				"request body exceeds %d bytes", tooBig.Limit)}, false
		}
		return Reply{Code: http.StatusBadRequest, Err: fmt.Errorf("invalid JSON: %w", err)}, false
	}
	return Reply{}, true
}

// decodeBody is DecodeJobRequest on body; nil means it was refused.
func decodeBody(body []byte) (*JobRequest, Reply) {
	req := new(JobRequest)
	if refusal, ok := DecodeJobRequest(httptest.NewRecorder(), post(body), req); !ok {
		return nil, refusal
	}
	return req, Reply{}
}

// stdlibEnvelope is Reply.Write's job-envelope body as it stood before the
// hand-written encoder.
func stdlibEnvelope(st JobStatusResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

func post(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
}

// padded inserts pad spaces after the first byte of body (inside the object,
// for a body that is one), which is how the fuzz target reaches the 1 MiB
// bound from a small input. A pad past 2 MiB is ignored, so random values
// mostly leave the body alone.
func padded(body []byte, pad uint32) []byte {
	if pad == 0 || pad > 2<<20 || len(body) == 0 {
		return body
	}
	out := append(make([]byte, 0, len(body)+int(pad)), body[0])
	out = append(out, bytes.Repeat([]byte(" "), int(pad))...)
	return append(out, body[1:]...)
}

// checkDecodeAgainstStdlib is the differential every decode test runs: the
// parser alone, then DecodeJobRequest, against the oracle on the same bytes.
// It returns whether the hand-written parser took the body.
func checkDecodeAgainstStdlib(t *testing.T, body []byte) bool {
	t.Helper()
	var want JobRequest
	wantRefusal, wantOK := stdlibDecodeJobRequest(httptest.NewRecorder(), post(body), &want)

	var parsed JobRequest
	prefix := body[:min(len(body), maxSubmitBody)]
	fast := (&jobParser{data: prefix, wb: new(wireBuf)}).request(&parsed)
	if fast {
		if !wantOK {
			t.Fatalf("parser accepted a body encoding/json refuses (%v): %.200q", wantRefusal.Err, body)
		}
		if !reflect.DeepEqual(parsed, want) {
			t.Fatalf("parser decoded %+v, encoding/json %+v: %.200q", parsed, want, body)
		}
		checkSharedAttrs(t, parsed.Inputs, body)
	}

	got, refusal := decodeBody(body)
	if (got != nil) != wantOK || (wantOK && !reflect.DeepEqual(*got, want)) {
		t.Fatalf("DecodeJobRequest = %+v, oracle %+v: %.200q", got, want, body)
	}
	if refusal.Code != wantRefusal.Code || fmt.Sprint(refusal.Err) != fmt.Sprint(wantRefusal.Err) {
		t.Fatalf("refusal %d %v, oracle %d %v: %.200q", refusal.Code, refusal.Err, wantRefusal.Code, wantRefusal.Err, body)
	}
	if got != nil {
		checkSharedAttrs(t, got.Inputs, body)
		_, _ = got.ToJob() // must not panic, whatever was decoded
	}
	return fast
}

// checkSharedAttrs: two decoded inputs share an attrs map only when their
// maps are equal (decoded maps are read-only, so sharing is safe only then).
func checkSharedAttrs(t *testing.T, ins []InputRequest, body []byte) {
	t.Helper()
	first := map[unsafe.Pointer]int{}
	for i, in := range ins {
		if in.Attrs == nil {
			continue
		}
		ptr := reflect.ValueOf(in.Attrs).UnsafePointer()
		j, seen := first[ptr]
		if !seen {
			first[ptr] = i
			continue
		}
		if !maps.Equal(ins[j].Attrs, in.Attrs) {
			t.Fatalf("inputs %d and %d share one map %v, want %v: %.200q", j, i, in.Attrs, ins[j].Attrs, body)
		}
	}
}

// FuzzDecodeJobRequest: arbitrary bytes through the hand-written parser and
// DecodeJobRequest, with encoding/json as the oracle (ROADMAP item 7a). The
// seeds are clientBodies plus testdata/fuzz, which holds the bodies at and one
// byte over the limit as a small object and a pad.
func FuzzDecodeJobRequest(f *testing.F) {
	for _, c := range clientBodies {
		f.Add([]byte(c.body), uint32(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, pad uint32) {
		checkDecodeAgainstStdlib(t, padded(data, pad))
	})
}

// clientBodies are representative POST /v1/jobs bodies by the client that
// would send them, with the path each must take: fast means the hand-written
// parser decodes it, otherwise it declines and encoding/json does.
var clientBodies = []struct {
	name, body string
	fast       bool
}{
	{"go json.Marshal", `{"tenant":"alice","description":"Generate social media newsfeed for alice","constraint":"MIN_COST","inputs":[{"name":"alice","kind":"user-profile"},{"name":"topic0","kind":"topic","attrs":{"queries":3}}],"wait":true}`, true},
	{"go json.Marshal, every field", `{"tenant":"t","description":"d","constraint":"MAX_QUALITY","min_quality":0.95,"tasks":["a","b"],"inputs":[{"name":"v.mov","kind":"video","attrs":{"duration_s":60,"frames_per_scene":24,"scene_len_s":30,"scenes":2}}],"max_paths":3,"slo_class":"gold","wait":true,"timeline":true}`, true},
	{"go json.Marshal, HTML escapes", `{"description":"a \u003cb\u003e \u0026 c","constraint":"","inputs":[]}`, true},
	{"python json.dumps", `{"tenant": "bob", "description": "Answer questions about the documents", "constraint": "MIN_POWER", "inputs": [{"name": "doc0.pdf", "kind": "document", "attrs": {"tokens": 1500.0}}], "wait": false}`, true},
	{"python ensure_ascii", `{"tenant": "zo\u00eb", "description": "caf\u00e9 \ud83d\ude00 menu", "inputs": [{"name": "x", "kind": "text"}]}`, true},
	{"python ensure_ascii=False", `{"tenant": "zoë", "description": "café 😀 menu", "inputs": [{"name": "x", "kind": "text"}]}`, true},
	{"js JSON.stringify", `{"tenant":"carol","description":"List objects shown/mentioned in the videos","constraint":"MIN_COST","min_quality":0.95,"inputs":[{"name":"video0.mov","kind":"video","attrs":{"duration_s":60,"scene_len_s":30,"scenes":2,"frames_per_scene":24}}],"wait":true}`, true},
	{"js exponent and escapes", `{"description":"tab\tquote\" slash\/ back\\","min_quality":9.5e-1,"inputs":[{"name":"n","kind":"text","attrs":{"big":1e21,"neg":-0.5}}]}`, true},
	{"pretty-printed", "{\n  \"tenant\": \"dave\",\n  \"description\": \"d\",\n  \"inputs\": [\n    {\n      \"name\": \"x\",\n      \"kind\": \"text\"\n    }\n  ]\n}\n", true},
	{"curl, README example", `{"tenant":"bob",
  "description":"List objects shown/mentioned in the videos",
  "constraint":"MAX_QUALITY","inputs":[{"name":"v.mov","kind":"video",
  "attrs":{"duration_s":120,"scene_len_s":30,"frames_per_scene":24}}]}`, true},
	{"empty object", `{}`, true},
	{"escaped key", `{"t\u0065nant":"x"}`, true},
	{"trailing bytes after the object", `{"tenant":"x"} trailing`, true},
	{"repeated attrs key", `{"inputs":[{"name":"x","kind":"text","attrs":{"a":1,"a":2}}]}`, true},
	{"inputs with identical attrs", `{"inputs":[{"name":"t0","kind":"topic","attrs":{"queries":3}},{"name":"t1","kind":"topic","attrs":{"queries":3}},{"name":"t2","kind":"topic","attrs":{"queries":3}}]}`, true},
	{"inputs with reordered attrs keys", `{"inputs":[{"name":"v0","kind":"video","attrs":{"duration_s":60,"scene_len_s":30}},{"name":"v1","kind":"video","attrs":{"scene_len_s":30,"duration_s":60}},{"name":"v2","kind":"video","attrs":{"scene_len_s":30,"duration_s":60}}]}`, true},
	{"inputs with attrs in different whitespace", `{"inputs":[{"name":"d0","kind":"document","attrs":{"tokens":1500}},{"name":"d1","kind":"document","attrs":{ "tokens": 1500 }},{"name":"d2","kind":"document","attrs":{"tokens":1500}}]}`, true},
	{"inputs with an escaped attrs key", `{"inputs":[{"name":"d0","kind":"document","attrs":{"tokens":1}},{"name":"d1","kind":"document","attrs":{"tok\u0065ns":1}},{"name":"d2","kind":"document","attrs":{"tok\u0065ns":1}}]}`, true},
	{"inputs with a repeated attrs key", `{"inputs":[{"name":"x0","kind":"text","attrs":{"a":1,"a":2}},{"name":"x1","kind":"text","attrs":{"a":1,"a":2}},{"name":"x2","kind":"text","attrs":{"a":2}}]}`, true},
	{"inputs with a prefix of the previous attrs", `{"inputs":[{"name":"x0","kind":"text","attrs":{"a":1}},{"name":"x1","kind":"text","attrs":{"a":10}},{"name":"x2","kind":"text","attrs":{"a}":1}},{"name":"x3","kind":"text","attrs":{"a}":1}}]}`, true},
	{"inputs with escaped, missing and late names", `{"inputs":[{"name":"caf\u00e9","kind":"text"},{"kind":"text","attrs":{}},{"attrs":{},"kind":"text","name":"z"},{"name":"","kind":"text"}]}`, true},
	{"inputs with a duplicate name", `{"inputs":[{"name":"a","kind":"text"},{"name":"b","name":"c","kind":"text"}]}`, false},
	{"inputs with bad attrs after identical ones", `{"inputs":[{"name":"a","attrs":{"q":1}},{"name":"b","attrs":{"q":1}},{"name":"c","attrs":{"q":null}}]}`, false},
	{"case-folded key", `{"Tenant":"x","description":"d"}`, false},
	{"duplicate key", `{"tenant":"x","tenant":"y"}`, false},
	{"null field", `{"tenant":null,"description":"d"}`, false},
	{"null body", `null`, false},
	{"unknown field", `{"tenant":"x","bogus":1}`, false},
	{"1.0 into max_paths", `{"max_paths":1.0}`, false},
	{"number into a string", `{"tenant":7}`, false},
	{"float out of range", `{"min_quality":1e999}`, false},
	{"lone surrogate", `{"description":"\ud83d"}`, false},
	{"invalid UTF-8", "{\"description\":\"\xff\"}", false},
	{"control character in a string", "{\"description\":\"a\nb\"}", false},
	{"leading zero", `{"min_quality":01}`, false},
	{"trailing comma", `{"tenant":"x",}`, false},
	{"truncated", `{"tenant": `, false},
	{"empty body", ``, false},
	{"array body", `[]`, false},
}

// TestDecodePathByClient verifies, rather than assumes, which bodies the
// hand-written parser takes, and that either way the answer is encoding/json's.
func TestDecodePathByClient(t *testing.T) {
	for _, c := range clientBodies {
		t.Run(c.name, func(t *testing.T) {
			if fast := checkDecodeAgainstStdlib(t, []byte(c.body)); fast != c.fast {
				t.Errorf("parser accepted = %v, want %v", fast, c.fast)
			}
		})
	}
}

// TestRepeatedAttrsShareOneMap: an input whose attrs object is byte-identical
// to the previous attrs object in the body decodes to that input's map; any
// other spelling, equal or not, gets a map of its own.
func TestRepeatedAttrsShareOneMap(t *testing.T) {
	const a, a2 = `{"queries":3,"tokens":1}`, `{"tokens":1,"queries":3}`
	objects := []string{a, a, a2, a2, " " + a, a, `{"queries":3, "tokens":1}`, a, `{"queries":4,"tokens":1}`, a, a}
	wantShared := []bool{false, true, false, true, false, true, false, false, false, false, true}
	var parts []string
	for i, o := range objects {
		parts = append(parts, fmt.Sprintf(`{"name":"in%d","kind":"topic","attrs":%s}`, i, o))
		if i == 5 {
			parts = append(parts, `{"name":"plain","kind":"text"}`) // no attrs: the next one still compares with a
		}
	}
	body := []byte(`{"inputs":[` + strings.Join(parts, ",") + `]}`)
	req, refusal := decodeBody(body)
	if req == nil {
		t.Fatal(refusal.Err)
	}
	ins := slices.DeleteFunc(req.Inputs, func(in InputRequest) bool { return in.Attrs == nil })
	for i, in := range ins {
		shared := i > 0 && reflect.ValueOf(in.Attrs).UnsafePointer() == reflect.ValueOf(ins[i-1].Attrs).UnsafePointer()
		if shared != wantShared[i] {
			t.Errorf("input %d (%s): shares its predecessor's map = %v, want %v", i, objects[i], shared, wantShared[i])
		}
		if want := fmt.Sprintf("in%d", i); in.Name != want {
			t.Errorf("input %d: name %q, want %q", i, in.Name, want)
		}
	}
}

// TestSharedAttrsOutliveTheirJob: decoded maps are read-only, so a served
// job whose inputs share one map leaves its contents as they were decoded,
// waited for or polled.
func TestSharedAttrsOutliveTheirJob(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for shape, body := range execHeavyBodies(t) {
		req, refusal := decodeBody(body)
		if req == nil {
			t.Fatalf("%s: %v", shape, refusal.Err)
		}
		shared := req.Inputs[len(req.Inputs)-1].Attrs
		if reflect.ValueOf(shared).UnsafePointer() != reflect.ValueOf(req.Inputs[len(req.Inputs)-2].Attrs).UnsafePointer() {
			t.Fatalf("%s: the last two inputs do not share a map", shape)
		}
		want := maps.Clone(shared)
		for _, wait := range []bool{true, false} {
			req.Wait = wait
			rp := s.Submit(context.Background(), *req)
			for rp.Err == nil && rp.Job.Status != core.JobDone.String() && rp.Job.Error == "" {
				runtime.Gosched()
				rp = s.Status(rp.Job.ID)
			}
			if rp.Err != nil || rp.Job.Status != core.JobDone.String() {
				t.Fatalf("%s, wait %v: %d %v %s", shape, wait, rp.Code, rp.Err, rp.Job.Error)
			}
			if !maps.Equal(shared, want) {
				t.Fatalf("%s, wait %v: the shared map went from %v to %v", shape, wait, want, shared)
			}
		}
	}
}

// TestDecodeAtTheBodyLimit pins the two oversize cases against the oracle
// without going through the fuzz engine.
func TestDecodeAtTheBodyLimit(t *testing.T) {
	small := []byte(`{"tenant":"x","description":"d","inputs":[{"name":"x","kind":"text"}]}`)
	over := padded(small, uint32(maxSubmitBody-len(small)+1))
	if checkDecodeAgainstStdlib(t, over) {
		t.Error("a body whose object closes past the limit was accepted")
	}
	if _, refusal := decodeBody(over); refusal.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("one byte over the limit: %d %v", refusal.Code, refusal.Err)
	}
	if !checkDecodeAgainstStdlib(t, append(small, bytes.Repeat([]byte("x"), 2<<20)...)) {
		t.Error("a complete object followed by 2 MiB was declined")
	}
}

// serviceMixBodies returns one body per ServiceMix shape (video, newsfeed,
// docqa), as the ledger renders them.
func serviceMixBodies(t testing.TB) map[string][]byte {
	arrivals, err := workload.PoissonTrace(workload.ServiceMix(), 1, 60, 17)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, a := range arrivals {
		shape := string(a.Job.Inputs[0].Kind)
		if out[shape] != nil {
			continue
		}
		if out[shape], err = json.Marshal(requestFor(a)); err != nil {
			t.Fatal(err)
		}
	}
	if len(out) != 3 {
		t.Fatalf("trace covers %d of the 3 ServiceMix shapes", len(out))
	}
	return out
}

// settledEnvelope is a done job's envelope with a ServiceMix-sized result.
func settledEnvelope() JobStatusResponse {
	return JobStatusResponse{
		ID: "job-00000001", Tenant: "heidi", Status: "done", FinishedSimS: 3.7946400000000002,
		Result: &JobResponse{
			Name: "murakkab/MIN_COST", MakespanS: 3.7946400000000002, GPUEnergyWh: 1.0830272333333335,
			CostUSD: 0.05734122666666667, Quality: 0.8505084745762711, TasksCompleted: 5,
			Decisions: map[string]string{
				"ranking": "bm25-ranker @ 1c ×1", "scene-summarization": "llama-3.1-8b @ 1xA100-80GB ×1",
				"sentiment-analysis": "distilbert-sentiment @ 1c ×1", "web-search": "web-search @ 1c ×2",
			},
			Template: "newsfeed",
		},
	}
}

// discardWriter is a ResponseWriter that costs nothing itself, so
// AllocsPerRun counts the codec's allocations only.
type discardWriter struct{ hdr http.Header }

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// execHeavyBodies returns the ledger's exec_heavy shapes, and the same shapes
// with four times the inputs, every one repeating its neighbour's attrs.
func execHeavyBodies(t testing.TB) map[string][]byte {
	out := map[string][]byte{}
	for _, n := range []int{1, 4} {
		for shape, job := range map[string]workflow.Job{
			"video":    workload.VideoJob(3*n, 16, 30, 24, workflow.MinCost),
			"newsfeed": workload.NewsfeedJob("reader", 12*n, workflow.MinCost),
			"docqa":    workload.DocQAJob(12*n, 2000, workflow.MinCost),
		} {
			body, err := json.Marshal(requestFor(workload.Arrival{Tenant: "heidi", Job: job}))
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s ×%d", shape, n)] = body
		}
	}
	return out
}

// TestWireAllocBudget holds the wire path to a host-independent allocation
// budget, so a regression fails `go test ./...` without the ledger. Decode
// counts everything DecodeJobRequest allocates for a body into caller storage:
// the MaxBytesReader, tenant, description, the inputs slice, one string for
// all input names and one map (two objects) per run of byte-identical attrs
// objects. Every ServiceMix and exec_heavy body is one such run, so each
// costs 7, and the exec_heavy shapes cost the same with four times the
// inputs. The ServiceMix budgets were 8 / 12 / 11 (video / user-profile /
// document) while the JobRequest was a heap object and every input had its
// own name and map; encoding/json took 22 / 35 / 30. Reply.Write allocates
// the Content-Type header value and nothing else (encoding/json: 11).
func TestWireAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("sync.Pool drops items under the race detector; coverage counters allocate")
	}
	const budget = 7
	bodies := serviceMixBodies(t)
	maps.Copy(bodies, execHeavyBodies(t))
	for shape, body := range bodies {
		rd := bytes.NewReader(body)
		req := post(body)
		w := &discardWriter{hdr: http.Header{}}
		var decoded JobRequest
		got := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			req.Body = readCloser{rd}
			if _, ok := DecodeJobRequest(w, req, &decoded); !ok {
				t.Fatal("body refused")
			}
		})
		if !(&jobParser{data: body, wb: new(wireBuf)}).request(new(JobRequest)) {
			t.Errorf("%s: the hand-written parser declined the body", shape)
		}
		if got > budget {
			t.Errorf("%s: DecodeJobRequest allocates %.0f times per body, budget %d", shape, got, budget)
		}
		t.Logf("%s (%d bytes): %.0f allocs per decode", shape, len(body), got)
	}

	rp := Reply{Code: http.StatusOK, Job: settledEnvelope()}
	w := &discardWriter{hdr: http.Header{}}
	if got := testing.AllocsPerRun(200, func() {
		clear(w.hdr)
		rp.Write(w)
	}); got > 1 {
		t.Errorf("Reply.Write allocates %.0f times per settled envelope, budget 1", got)
	}
}

// readCloser gives a bytes.Reader a no-op Close without io.NopCloser's
// per-request allocation.
type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// TestLargeBuffersLeaveThePool: one near-limit body must not pin a megabyte
// in the pool (per P) for the life of the daemon, and neither may a body under
// the limit whose many small inputs grow the scratch they are collected in.
func TestLargeBuffersLeaveThePool(t *testing.T) {
	manyInputs := []byte(`{"inputs":[` + strings.Repeat(`{"name":"x"},`, 4720) + `{"name":"x"}]}`)
	for _, body := range [][]byte{padded([]byte(`{"tenant":"x"}`), 512<<10), manyInputs} {
		for i := 0; i < 64; i++ {
			if r, _ := decodeBody(body); r == nil {
				t.Fatalf("%d-byte body refused", len(body))
			}
		}
		for i := 0; i < 64; i++ {
			wb := wireBufs.Get().(*wireBuf)
			for name, size := range map[string]uintptr{
				"body":   uintptr(cap(wb.b)),
				"escape": uintptr(cap(wb.esc)),
				"keys":   uintptr(cap(wb.strs)) * unsafe.Sizeof(""),
				"inputs": uintptr(cap(wb.inputs)) * unsafe.Sizeof(pendingInput{}),
				"names":  uintptr(cap(wb.names)),
			} {
				if size > maxPooledWireBuf {
					t.Fatalf("after a %d-byte body the pool handed out %d bytes of %s scratch", len(body), size, name)
				}
			}
		}
	}
}

var nastyStrings = []string{
	"", "plain", `<>&"\`, "\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "\xff", "a\xc3", "\xed\xa0\x80",
	"\u2028\u2029", "×é😀", "llama-3.1-8b @ 1xA100-80GB ×1", strings.Repeat("long ", 200),
}

var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.95, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 1.5e300, 3.7946400000000002,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, 100, 1e-9, 123456789.125,
}

func randomEnvelope(rng *rand.Rand) JobStatusResponse {
	str := func() string {
		if rng.Intn(3) == 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			return string(b)
		}
		return nastyStrings[rng.Intn(len(nastyStrings))]
	}
	num := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(rng.Uint64())
		}
		return nastyFloats[rng.Intn(len(nastyFloats))]
	}
	st := JobStatusResponse{
		ID: str(), Tenant: str(), Shard: rng.Intn(5) - 1, Status: str(),
		QueueDelayS: num(), SubmittedSimS: num(), FinishedSimS: num(), Error: str(), ErrorCode: str(),
	}
	switch rng.Intn(3) {
	case 1:
		st.Attempts = []AttemptJSON{}
	case 2:
		for i := rng.Intn(3) + 1; i > 0; i-- {
			st.Attempts = append(st.Attempts, AttemptJSON{
				AtS: num(), Task: str(), Capability: str(), Implementation: str(),
				Attempt: rng.Intn(9), BackoffS: num(), Error: str(),
			})
		}
	}
	if rng.Intn(4) > 0 {
		r := &JobResponse{
			Name: str(), MakespanS: num(), GPUEnergyWh: num(), CPUEnergyWh: num(), CostUSD: num(),
			EstCostUSD: num(), MeanGPUUtil: num(), MeanCPUUtil: num(), Quality: num(),
			PlanningOverheadFrac: num(), TasksCompleted: rng.Intn(1 << 20), Timeline: str(), Template: str(),
		}
		switch rng.Intn(3) {
		case 1:
			r.Decisions = map[string]string{}
		case 2:
			r.Decisions = map[string]string{}
			for i := rng.Intn(6); i >= 0; i-- {
				r.Decisions[str()] = str()
			}
		}
		st.Result = r
	}
	return st
}

// TestEnvelopeMatchesEncodingJSON: the hand-written encoder against
// json.Encoder on seeded random envelopes — byte for byte, and 500 exactly
// when encoding/json refuses (a NaN or an infinity).
func TestEnvelopeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	unencodable := 0
	for i := 0; i < 20000; i++ {
		st := randomEnvelope(rng)
		want, err := stdlibEnvelope(st)
		rec := httptest.NewRecorder()
		Reply{Code: http.StatusAccepted, Job: st}.Write(rec)
		if err != nil {
			unencodable++
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("envelope %d: encoding/json refuses (%v), Reply.Write answered %d", i, err, rec.Code)
			}
			continue
		}
		if rec.Code != http.StatusAccepted || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("envelope %d: %d\n got: %q\nwant: %q", i, rec.Code, rec.Body.Bytes(), want)
		}
	}
	if unencodable == 0 || unencodable > 15000 {
		t.Fatalf("%d of 20000 envelopes were unencodable; the generator is off", unencodable)
	}
}

// TestNonFiniteEnvelopeIs500: JSON cannot carry a NaN, and the reply must say
// so instead of sending 200 with an empty body (which is what writing the
// header before encoding did).
func TestNonFiniteEnvelopeIs500(t *testing.T) {
	st := settledEnvelope()
	st.Result.Quality = math.NaN()
	rec := httptest.NewRecorder()
	Reply{Code: http.StatusOK, Job: st, RetryAfter: true}.Write(rec)
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(e.Error, "quality") || !strings.Contains(e.Error, "NaN") {
		t.Errorf("answered %d %q, want 500 naming the field and the value", rec.Code, e.Error)
	}
	if rec.Header().Get("Retry-After") != "" || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("headers %v", rec.Header())
	}
}

// TestWireCodecConcurrent drives DecodeJobRequest and Reply.Write from eight
// goroutines with bodies and envelopes of different sizes: the pooled buffers
// are the codec's only shared state, and no answer may carry another's bytes.
// CI's race-stress line runs it under -race -count=25.
func TestWireCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tenant := fmt.Sprintf("tenant-%d-%d", g, i)
				desc := strings.Repeat(fmt.Sprintf("d%d \\\"q\\\" ", g), 1+(g*37+i*11)%400)
				body := fmt.Sprintf(`{"tenant":%q,"description":"%s","tasks":[%q],"inputs":[{"name":%q,"kind":"text","attrs":{"g":%d}}]}`,
					tenant, desc, tenant, tenant, g)
				req, refusal := decodeBody([]byte(body))
				if req == nil {
					t.Errorf("refused: %v", refusal.Err)
					return
				}
				if req.Tenant != tenant || req.Description != strings.ReplaceAll(desc, `\"`, `"`) || req.Tasks[0] != tenant ||
					req.Inputs[0].Name != tenant || req.Inputs[0].Attrs["g"] != float64(g) {
					t.Errorf("goroutine %d decoded another request's bytes: %.120v", g, *req)
					return
				}
				st := JobStatusResponse{ID: tenant, Tenant: tenant, Error: req.Description, Result: &JobResponse{
					Decisions: map[string]string{tenant: tenant, "g": desc}}}
				want, _ := stdlibEnvelope(st)
				rec := httptest.NewRecorder()
				Reply{Code: http.StatusOK, Job: st}.Write(rec)
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("goroutine %d wrote another reply's bytes:\n got: %.200q\nwant: %.200q", g, rec.Body.Bytes(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanningTextBound: what feeds the planner's prompt estimate is bounded
// at the wire, because a megabyte of description passes the body limit, needs
// more KV tokens than an engine has and used to panic the shard loop.
func TestPlanningTextBound(t *testing.T) {
	s, err := NewServer(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	submit := func(description string, tasks ...string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(JobRequest{
			Description: description, Tasks: tasks, Constraint: "MIN_COST", Wait: true,
			Inputs: []InputRequest{{Name: "v.mov", Kind: "video", Attrs: map[string]float64{
				"duration_s": 60, "scene_len_s": 30, "frames_per_scene": 24}}},
		})
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, post(body))
		return rec
	}
	const desc = "List objects shown/mentioned in the videos "
	for _, tc := range []struct {
		name string
		rec  *httptest.ResponseRecorder
		code int
	}{
		// 1.04 MB of description under the 1 MiB body limit: the request that killed the daemon.
		{"1.04 MB description", submit(desc + strings.Repeat("x", 1_040_000-len(desc))), http.StatusBadRequest},
		{"description + tasks just over", submit(desc+strings.Repeat("x", maxPlanningText-len(desc)-9), "0123456789"), http.StatusBadRequest},
		{"description + tasks at the bound", submit(desc+strings.Repeat("x", maxPlanningText-len(desc)-10), "0123456789"), http.StatusOK},
	} {
		if tc.rec.Code != tc.code {
			t.Errorf("%s: %d, want %d: %.200s", tc.name, tc.rec.Code, tc.code, tc.rec.Body.String())
		}
		if tc.code == http.StatusBadRequest && (tc.rec.Body.Len() > 1024 || !strings.Contains(tc.rec.Body.String(), "65536 bytes")) {
			t.Errorf("%s: refusal is %d bytes: %.200s", tc.name, tc.rec.Body.Len(), tc.rec.Body.String())
		}
	}
}

// TestShardForMatchesHashFNV: the inlined FNV-1a places every tenant on the
// shard hash/fnv did.
func TestShardForMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		h := fnv.New32a()
		h.Write(b)
		if got := fnv32a(string(b)); got != h.Sum32() {
			t.Fatalf("fnv32a(%q) = %#x, hash/fnv %#x", b, got, h.Sum32())
		}
	}
}

// BenchmarkWireDecode and BenchmarkWireEncode time the hand-written codec
// beside the encoding/json calls it replaced, on the newsfeed body (three
// inputs) and a settled envelope.
func BenchmarkWireDecode(b *testing.B) {
	body := serviceMixBodies(b)["user-profile"]
	for name, decode := range map[string]func(http.ResponseWriter, *http.Request, *JobRequest) (Reply, bool){
		"handwritten": DecodeJobRequest, "encoding-json": stdlibDecodeJobRequest,
	} {
		b.Run(name, func(b *testing.B) {
			rd, req, w := bytes.NewReader(body), post(body), &discardWriter{hdr: http.Header{}}
			var decoded JobRequest
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				req.Body = readCloser{rd}
				if _, ok := decode(w, req, &decoded); !ok {
					b.Fatal("refused")
				}
			}
		})
	}
}

func BenchmarkWireEncode(b *testing.B) {
	rp, w := Reply{Code: http.StatusOK, Job: settledEnvelope()}, &discardWriter{hdr: http.Header{}}
	b.Run("handwritten", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			clear(w.hdr)
			rp.Write(w)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			clear(w.hdr)
			WriteJSON(w, rp.Code, rp.Job)
		}
	})
}
