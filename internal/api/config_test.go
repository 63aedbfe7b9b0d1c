package api

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPoolConfigValidate pins PoolConfig's one check: every numeric field
// but the seed refuses a negative value (and every float NaN) under its own
// name, an SLO sub-field without SLO is refused, core's SLO verdict is
// passed through, and "never" is spelled +Inf or math.MaxInt. newPool returns
// the same error and builds nothing.
func TestPoolConfigValidate(t *testing.T) {
	type tc struct {
		name    string
		cfg     PoolConfig
		wantErr string
	}
	cases := []tc{
		{name: "zero value ok"},
		{name: "never ok", cfg: PoolConfig{
			RetainSimSeconds: math.Inf(1), MaxSeriesPoints: math.MaxInt, JobHistoryLimit: math.MaxInt,
			JobDeadlineS: math.Inf(1), SLO: true, SLOQueueBound: math.MaxInt, SLOBudgetUSD: math.Inf(1),
		}},
		{name: "negative seed ok", cfg: PoolConfig{FaultSeed: -7}},
		{name: "slo full ok", cfg: PoolConfig{
			SLO: true, SLOTenantTiers: map[string]string{"alice": "gold"}, SLODefaultClass: "bronze",
			SLOHighWatermark: 3, SLOLowWatermark: 1.5, SLOQueueBound: 8, SLOBudgetUSD: 2,
		}},

		{name: "tenants without slo", cfg: PoolConfig{SLOTenantTiers: map[string]string{"alice": "gold"}}, wantErr: "SLOTenantTiers requires SLO"},
		{name: "default class without slo", cfg: PoolConfig{SLODefaultClass: "gold"}, wantErr: "SLODefaultClass requires SLO"},
		{name: "low watermark without slo", cfg: PoolConfig{SLOLowWatermark: 1}, wantErr: "SLOHighWatermark/SLOLowWatermark requires SLO"},
		{name: "queue bound without slo", cfg: PoolConfig{SLOQueueBound: 1}, wantErr: "SLOQueueBound requires SLO"},
		{name: "budget without slo", cfg: PoolConfig{SLOBudgetUSD: 1}, wantErr: "SLOBudgetUSD requires SLO"},
		{name: "inverted watermarks", cfg: PoolConfig{SLO: true, SLOHighWatermark: 1, SLOLowWatermark: 2}, wantErr: "watermark"},
		{name: "unknown tenant class", cfg: PoolConfig{SLO: true, SLOTenantTiers: map[string]string{"a": "platinum"}}, wantErr: "platinum"},
		{name: "infinite fault rate", cfg: PoolConfig{FaultRate: math.Inf(1)}, wantErr: "FaultRate"},
	}
	// Every numeric field, including any added later, refuses -1 and NaN.
	typ := reflect.TypeOf(PoolConfig{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "FaultSeed" {
			continue
		}
		bad := map[string]float64{"negative": -1}
		switch f.Type.Kind() {
		case reflect.Float64:
			bad["NaN"] = math.NaN()
		case reflect.Int, reflect.Int64:
		default:
			continue
		}
		for label, v := range bad {
			var cfg PoolConfig
			fv := reflect.ValueOf(&cfg).Elem().Field(i)
			if fv.Kind() == reflect.Float64 {
				fv.SetFloat(v)
			} else {
				fv.SetInt(int64(v))
			}
			cfg.SLO = strings.HasPrefix(f.Name, "SLO")
			cases = append(cases, tc{name: label + " " + f.Name, cfg: cfg, wantErr: f.Name + " must be >= 0"})
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want an error containing %q", err, c.wantErr)
			}
			if p, perr := newPool(c.cfg, core.Config{}); p != nil || perr == nil || perr.Error() != err.Error() {
				t.Fatalf("newPool = %v, %v; want nil and %v", p, perr, err)
			}
		})
	}
}

// TestNewServerRefusesAnInfiniteFaultRate: a fault rate whose trace could
// never be drawn is refused by name, and the refusal leaves no goroutine
// behind.
func TestNewServerRefusesAnInfiniteFaultRate(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := NewServer(PoolConfig{Shards: 1, PlanWorkers: 2, FaultRate: math.Inf(1)})
	if s != nil || err == nil || !strings.Contains(err.Error(), "FaultRate") {
		t.Fatalf("NewServer = %v, %v; want an error naming FaultRate", s, err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before NewServer, %d after its refusal", before, after)
	}
}

// FuzzPoolConfigValidate: for any settings Validate returns rather than
// panics, a config it accepts is still accepted once the defaults are filled
// in, and a NaN in any float field, including any added later, is refused.
func FuzzPoolConfigValidate(f *testing.F) {
	f.Add(0, 0, 0, 0, 0.0, 0, 0, 0.0, 0.0, int64(0), 0, 0.0, false, "", "", "", 0.0, 0.0, 0, 0.0)
	f.Add(2, 2, 4, 4096, math.Inf(1), math.MaxInt, 2, 30.0, 0.01, int64(-7), 3, 600.0, true, "alice", "gold", "bronze", 3.0, 1.5, 8, 2.0)
	f.Add(1, 1, 1, 1, 60.0, 10, 1, 0.0, math.Inf(1), int64(1), 0, 0.0, false, "", "", "", 0.0, 1.0, 0, 0.0)
	f.Add(1, 1, 1, 1, 1.0, 1, 1, 0.0, 0.0, int64(1), 0, 0.0, true, "a", "platinum", "", 1.0, 2.0, 0, math.NaN())
	f.Add(-1, 0, 0, 0, -1.0, 0, 0, 0.0, 1e300, int64(0), -1, math.Inf(1), true, "", "", "gold", math.Inf(1), math.Inf(1), -1, math.Inf(1))
	f.Fuzz(func(t *testing.T, shards, vms, conc, history int, retain float64, points, workers int,
		rebalance, faultRate float64, faultSeed int64, retries int, deadline float64,
		slo bool, tenant, class, defaultClass string, high, low float64, queueBound int, budget float64) {
		cfg := PoolConfig{
			Shards: shards, VMsPerShard: vms, MaxConcurrentPerShard: conc, JobHistoryLimit: history,
			RetainSimSeconds: retain, MaxSeriesPoints: points, PlanWorkers: workers,
			RebalancePeriodS: rebalance, FaultRate: faultRate, FaultSeed: faultSeed,
			MaxRetries: retries, JobDeadlineS: deadline, SLO: slo, SLODefaultClass: defaultClass,
			SLOHighWatermark: high, SLOLowWatermark: low, SLOQueueBound: queueBound, SLOBudgetUSD: budget,
		}
		if tenant != "" {
			cfg.SLOTenantTiers = map[string]string{tenant: class}
		}
		if err := cfg.Validate(); err == nil {
			if err := cfg.withDefaults().Validate(); err != nil {
				t.Fatalf("Validate accepts %+v, but not with its defaults: %v", cfg, err)
			}
		}
		typ := reflect.TypeOf(cfg)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			nan := cfg
			reflect.ValueOf(&nan).Elem().Field(i).SetFloat(math.NaN())
			if nan.Validate() == nil {
				t.Fatalf("Validate accepts NaN in %s: %+v", typ.Field(i).Name, nan)
			}
		}
	})
}
