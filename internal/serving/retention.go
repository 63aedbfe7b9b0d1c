package serving

import (
	"math"
	"runtime"
	"time"

	"repro/internal/api"
)

// The retention scenario replays the serving scenario's default trace against
// the shared pool with a 60 simulated-second retention window — a small
// fraction of the simulated history the trace serves, so a bounded footprint
// is a real claim — and again with retention off. Compaction only: shard
// recycling (MaxSeriesPoints) has its own test in internal/api.
const (
	retentionWindowS = 60
	// retentionSamplePeriod is the wall-clock cadence of the pool-stats
	// sampler that watches the footprint during a replay.
	retentionSamplePeriod = 25 * time.Millisecond
)

// RetentionResult reports the bounded-memory claim: peak and final retained
// telemetry under retention, served-history-to-retention ratio, and the
// unbounded baseline's peak.
type RetentionResult struct {
	Jobs      int
	Completed int
	Failed    int
	WallS     float64
	// Throughput is completed jobs per wall-clock second with retention on
	// (comparable to the shared arm of Result).
	Throughput float64

	// PeakPoints/PeakBytes are the largest pool-wide retained-telemetry
	// readings sampled during the replay; FinalPoints the quiescent reading
	// after it.
	PeakPoints  int
	PeakBytes   int
	FinalPoints int
	// CompactedPoints totals change points dropped by compaction; Recycles
	// counts shard replacements.
	CompactedPoints int
	Recycles        int
	// MaxShardSimS is the longest shard history served; HistoryOverRetainX
	// is that history divided by the retention window (the "≥ 10×" claim).
	MaxShardSimS       float64
	HistoryOverRetainX float64

	// UnboundedPeakPoints is the no-retention replay's peak footprint;
	// GrowthContainedX is that over the retained peak.
	UnboundedPeakPoints int
	GrowthContainedX    float64
}

// RunRetention replays the trace against the shared pool with tiered
// retention enabled, sampling the pool's stats for the telemetry footprint,
// and against an unbounded pool for contrast.
func RunRetention() (*RetentionResult, error) {
	trace, err := buildTrace(DefaultOptions())
	if err != nil {
		return nil, err
	}
	res, err := runRetentionArm(trace, retentionWindowS)
	if err != nil {
		return nil, err
	}
	unbounded, err := runRetentionArm(trace, math.Inf(1))
	if err != nil {
		return nil, err
	}
	res.UnboundedPeakPoints = unbounded.PeakPoints
	if res.PeakPoints > 0 {
		res.GrowthContainedX = float64(unbounded.PeakPoints) / float64(res.PeakPoints)
	}
	return res, nil
}

// runRetentionArm is one replay with a concurrent stats sampler watching the
// telemetry footprint (an infinite retainS turns retention off).
func runRetentionArm(trace [][]byte, retainS float64) (*RetentionResult, error) {
	runtime.GC() // keep one arm's garbage off the other arm's clock
	cfg := sharedPool
	cfg.RetainSimSeconds, cfg.MaxSeriesPoints = retainS, math.MaxInt
	server, err := api.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer server.Close()

	res := &RetentionResult{Jobs: len(trace)}
	observe := func() api.PoolStats {
		st := server.Pool().Stats()
		res.PeakPoints = max(res.PeakPoints, st.TelemetryPoints)
		res.PeakBytes = max(res.PeakBytes, st.TelemetryBytes)
		return st
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(retentionSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				observe()
			}
		}
	}()
	rep := replayHTTP(server, trace, DefaultOptions().Clients)
	close(stop)
	<-stopped
	res.Completed, res.Failed, res.WallS, res.Throughput = rep.completed, rep.failed, rep.wallS, rep.throughput()

	final := observe()
	res.FinalPoints = final.TelemetryPoints
	res.Recycles = final.Recycles
	for _, sh := range final.Shards {
		res.CompactedPoints += sh.CompactedPoints
		res.MaxShardSimS = max(res.MaxShardSimS, sh.SimTimeS)
	}
	if retainS > 0 {
		res.HistoryOverRetainX = res.MaxShardSimS / retainS
	}
	return res, nil
}
