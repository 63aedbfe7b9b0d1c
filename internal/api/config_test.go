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
