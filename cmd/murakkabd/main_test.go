package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name        string
		flags       daemonFlags
		wantErr     string
		wantTenants map[string]string
	}{
		{name: "defaults ok"},
		{name: "explicit ok", flags: daemonFlags{retain: 3600, maxSeriesPoints: 1 << 20, planWorkers: 4, rebalance: 30}},
		{name: "faults ok", flags: daemonFlags{faults: 0.1, maxRetries: 4, jobDeadline: 1800}},
		{name: "negative retain", flags: daemonFlags{retain: -1}, wantErr: "-retain"},
		{name: "negative max-series-points", flags: daemonFlags{maxSeriesPoints: -5}, wantErr: "-max-series-points"},
		{name: "negative plan-workers", flags: daemonFlags{planWorkers: -1}, wantErr: "-plan-workers"},
		{name: "negative rebalance", flags: daemonFlags{rebalance: -0.5}, wantErr: "-rebalance"},
		{name: "negative faults", flags: daemonFlags{faults: -0.1}, wantErr: "-faults"},
		{name: "negative max-retries", flags: daemonFlags{maxRetries: -1}, wantErr: "-max-retries"},
		{name: "negative job-deadline", flags: daemonFlags{jobDeadline: -30}, wantErr: "-job-deadline"},
		{name: "router ok", flags: daemonFlags{router: true}},
		{name: "router nodes ok", flags: daemonFlags{router: true, nodes: 5}},
		{name: "nodes without router", flags: daemonFlags{nodes: 3}, wantErr: "-nodes requires -router"},
		{name: "negative nodes", flags: daemonFlags{router: true, nodes: -1}, wantErr: "-nodes"},

		{name: "slo ok", flags: daemonFlags{slo: true}},
		{name: "slo full ok",
			flags: daemonFlags{slo: true, sloTenants: "alice=gold, bob=bronze", sloDefault: "silver",
				sloHigh: 2.5, sloLow: 1.25, sloQueueBound: 8, sloBudget: 32},
			wantTenants: map[string]string{"alice": "gold", "bob": "bronze"}},
		{name: "slo tenants without slo", flags: daemonFlags{sloTenants: "alice=gold"}, wantErr: "requires -slo"},
		{name: "slo default without slo", flags: daemonFlags{sloDefault: "gold"}, wantErr: "requires -slo"},
		{name: "slo watermark without slo", flags: daemonFlags{sloHigh: 3}, wantErr: "require -slo"},
		{name: "slo queue bound without slo", flags: daemonFlags{sloQueueBound: 4}, wantErr: "requires -slo"},
		{name: "slo budget without slo", flags: daemonFlags{sloBudget: 10}, wantErr: "requires -slo"},
		{name: "negative watermark", flags: daemonFlags{slo: true, sloLow: -1}, wantErr: "-slo-high/-slo-low"},
		{name: "inverted watermarks", flags: daemonFlags{slo: true, sloHigh: 1, sloLow: 2}, wantErr: "watermark"},
		{name: "high below default low", flags: daemonFlags{slo: true, sloHigh: 0.5}, wantErr: "watermark"},
		{name: "negative queue bound", flags: daemonFlags{slo: true, sloQueueBound: -1}, wantErr: "-slo-queue-bound"},
		{name: "negative budget", flags: daemonFlags{slo: true, sloBudget: -0.5}, wantErr: "-slo-budget"},
		{name: "malformed tenants", flags: daemonFlags{slo: true, sloTenants: "alice"}, wantErr: "tenant=class"},
		{name: "empty tenant class", flags: daemonFlags{slo: true, sloTenants: "alice="}, wantErr: "tenant=class"},
		{name: "duplicate tenant", flags: daemonFlags{slo: true, sloTenants: "a=gold,a=bronze"}, wantErr: "twice"},
		{name: "unknown tenant class", flags: daemonFlags{slo: true, sloTenants: "alice=platinum"}, wantErr: "platinum"},
		{name: "unknown default class", flags: daemonFlags{slo: true, sloDefault: "platinum"}, wantErr: "platinum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tenants, err := validateFlags(tc.flags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: unexpected error %v", err)
				}
				if tc.wantTenants != nil && !reflect.DeepEqual(tenants, tc.wantTenants) {
					t.Fatalf("validateFlags tenants = %v, want %v", tenants, tc.wantTenants)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags: want error naming %s, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}
