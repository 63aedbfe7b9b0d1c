package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
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

// TestHTTPServerBoundsReadsNotHolds drives the daemon's http.Server settings
// (with ReadTimeout scaled down) over a real listener: a client that stalls
// mid-body is disconnected once ReadTimeout passes, while a handler that holds
// its answer for longer than ReadTimeout — a wait:true job that has not
// settled yet — still delivers it.
func TestHTTPServerBoundsReadsNotHolds(t *testing.T) {
	const readTimeout = 150 * time.Millisecond
	const hold = 3 * readTimeout
	pool, err := api.NewServer(api.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs", pool)
	mux.HandleFunc("/hold", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(hold)
		io.WriteString(w, "settled")
	})
	srv := newHTTPServer("", mux)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("daemon timeouts: header %v read %v idle %v write %v; want the first three set and no write timeout",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	srv.ReadTimeout = readTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/jobs HTTP/1.1\r\nHost: murakkabd\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n{\"tenant\":")
	stalled := time.Now()
	conn.SetReadDeadline(stalled.Add(20 * readTimeout))
	answer, err := io.ReadAll(conn) // returns at the server's close
	if err != nil {
		t.Fatalf("stalled client still connected after %v: %v", time.Since(stalled), err)
	}
	if strings.HasPrefix(string(answer), "HTTP/1.1 200") {
		t.Fatalf("half a body was answered 200: %q", answer)
	}
	if waited := time.Since(stalled); waited < readTimeout {
		t.Fatalf("disconnected after %v, before ReadTimeout %v", waited, readTimeout)
	}

	resp, err := http.Post("http://"+ln.Addr().String()+"/hold", "application/json", strings.NewReader(`{"wait":true}`))
	if err != nil {
		t.Fatalf("a hold of %v under a ReadTimeout of %v was cut off: %v", hold, readTimeout, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "settled" {
		t.Fatalf("held answer = %d %q, %v", resp.StatusCode, body, err)
	}
}
