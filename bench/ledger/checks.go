package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"regexp"

	"repro/internal/experiments"
)

// simClockCap is the per-shard sim clock no epoch may reach: the seed's
// llmsim livelock was observed at 65,580 sim-s, and epochs are sized for
// half of this.
const simClockCap = 16384

// replayJobs is how many jobs of a workload's trace the determinism check
// replays.
const replayJobs = 200

// checkPaperMetrics re-derives the four pinned paper metrics. A ledger run
// on a build whose reproduction drifted measures a different program.
func checkPaperMetrics() []string {
	pins := []struct {
		name, want string
		got        func() (string, error)
	}{
		{"speedup_x", "4.516", func() (string, error) {
			res, err := experiments.Figure3()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.3f", res.Speedup()), nil
		}},
		{"energy_gain_x", "3.469", func() (string, error) {
			res, err := experiments.Table2()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.3f", res.EnergyEfficiencyGain), nil
		}},
		{"mismatches", "0", func() (string, error) {
			res, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return fmt.Sprint(len(res.Check())), nil
		}},
		{"multiplex_gain_x", "1.629", func() (string, error) {
			res, err := experiments.MultiTenant()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.3f", res.MultiplexGain), nil
		}},
	}
	var bad []string
	for _, p := range pins {
		if got, err := p.got(); err != nil {
			bad = append(bad, fmt.Sprintf("paper metric %s: %v", p.name, err))
		} else if got != p.want {
			bad = append(bad, fmt.Sprintf("paper metric %s = %s, want %s", p.name, got, p.want))
		}
	}
	return bad
}

var jobIDField = regexp.MustCompile(`"id":"[^"]*"`)

// replay sends the first replayJobs jobs of the workload's trace one at a
// time through a fresh server and returns each job's terminal response body
// with the job id blanked.
func replay(s spec, seed int64) ([][]byte, error) {
	srv, err := s.build()
	if err != nil {
		return nil, err
	}
	defer srv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 4*opDeadline)
	defer cancel()
	c := newClient()
	var out [][]byte
	for e := 0; len(out) < replayJobs; e++ {
		bodies, err := s.bodies(seed, e)
		if err != nil {
			return nil, err
		}
		for _, b := range bodies {
			if len(out) == replayJobs {
				break
			}
			code, resp := c.do(ctx, srv.h, http.MethodPost, "/v1/jobs", b)
			if code != http.StatusOK && code != http.StatusAccepted {
				return nil, fmt.Errorf("%s: replay job %d: status %d: %s", s.name, len(out), code, resp)
			}
			target := "/v1/jobs/" + jobID(resp)
			if resp, err = awaitDone(ctx, resp, func() (int, []byte) {
				return c.do(ctx, srv.h, http.MethodGet, target, nil)
			}); err != nil {
				return nil, fmt.Errorf("%s: replay job %d: %w", s.name, len(out), err)
			}
			out = append(out, jobIDField.ReplaceAll(resp, []byte(`"id":""`)))
		}
	}
	return out, nil
}

// checkDeterminism replays the head of the trace twice on fresh servers: the
// same bodies in the same order must produce byte-identical responses.
func checkDeterminism(s spec, seed int64) []string {
	a, err := replay(s, seed)
	if err != nil {
		return []string{err.Error()}
	}
	b, err := replay(s, seed)
	if err != nil {
		return []string{err.Error()}
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return []string{fmt.Sprintf("%s: replayed job %d differs between two fresh servers:\n  %s  %s", s.name, i, a[i], b[i])}
		}
	}
	return nil
}

// checkRun validates a finished measured run: nothing failed, the caches
// behaved as the workload was designed to make them, and no shard's sim
// clock came near the seed's livelock range.
func (r *runner) checkRun() []string {
	bad := append([]string(nil), r.checkErrs...)
	note := func(format string, args ...any) { bad = append(bad, r.s.name+": "+fmt.Sprintf(format, args...)) }
	if r.failed > 0 {
		note("%d of %d jobs failed (%d epochs abandoned by the watchdog)", r.failed, r.attempted, r.wedged)
	}
	if r.done == 0 {
		note("no timed job completed")
		return bad
	}
	c := r.counters
	for name, hits := range map[string]counter{"plan": cPlanHits, "decomposition": cDecompHits} {
		if f := ratio(float64(c.sum[hits]), float64(c.sum[cJobs])); f < r.s.hitLo || f > r.s.hitHi {
			note("%s-cache hit fraction %.3f outside [%.2f, %.2f]: the workload no longer exercises what it was built for", name, f, r.s.hitLo, r.s.hitHi)
		}
	}
	if c.shardSimMax >= simClockCap {
		note("shard sim clock reached %.0f sim-s (cap %d): shorten the epoch", c.shardSimMax, simClockCap)
	}
	if int(c.sum[cJobs]) != r.done {
		note("/v1/stats counted %d completed timed jobs, the clients %d", c.sum[cJobs], r.done)
	}
	return bad
}
