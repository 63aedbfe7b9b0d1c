package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// TestValidateFlags drives real argv through the daemon's flag set: the
// flags land in one api.PoolConfig, PoolConfig.Validate is the check, and the
// defaults are the ones the daemon has always served with.
func TestValidateFlags(t *testing.T) {
	defaults := options{addr: ":8080", drainTimeout: 30 * time.Second,
		pool: api.PoolConfig{Shards: 2, VMsPerShard: 2, MaxConcurrentPerShard: 4, FaultSeed: 1}}
	cases := []struct {
		name    string
		args    []string
		wantErr string
		want    func(*options) // edits defaults into the expected options
	}{
		{name: "defaults ok", want: func(*options) {}},
		{name: "explicit ok",
			args: []string{"-retain", "3600", "-max-series-points", "1048576", "-plan-workers", "4", "-rebalance", "30"},
			want: func(o *options) {
				o.pool.RetainSimSeconds, o.pool.MaxSeriesPoints, o.pool.PlanWorkers, o.pool.RebalancePeriodS = 3600, 1<<20, 4, 30
			}},
		{name: "never ok", args: []string{"-retain", "Inf", "-max-series-points", strconv.Itoa(math.MaxInt)},
			want: func(o *options) { o.pool.RetainSimSeconds, o.pool.MaxSeriesPoints = math.Inf(1), math.MaxInt }},
		{name: "faults ok", args: []string{"-faults", "0.1", "-fault-seed", "9", "-max-retries", "4", "-job-deadline", "1800"},
			want: func(o *options) {
				o.pool.FaultRate, o.pool.FaultSeed, o.pool.MaxRetries, o.pool.JobDeadlineS = 0.1, 9, 4, 1800
			}},
		{name: "negative retain", args: []string{"-retain", "-1"}, wantErr: "RetainSimSeconds must be >= 0"},
		{name: "NaN retain", args: []string{"-retain", "NaN"}, wantErr: "RetainSimSeconds must be >= 0 (got NaN)"},
		{name: "negative max-series-points", args: []string{"-max-series-points", "-5"}, wantErr: "MaxSeriesPoints"},
		{name: "negative plan-workers", args: []string{"-plan-workers", "-1"}, wantErr: "PlanWorkers"},
		{name: "negative rebalance", args: []string{"-rebalance", "-0.5"}, wantErr: "RebalancePeriodS"},
		{name: "negative faults", args: []string{"-faults", "-0.1"}, wantErr: "FaultRate"},
		{name: "negative max-retries", args: []string{"-max-retries", "-1"}, wantErr: "MaxRetries"},
		{name: "negative job-deadline", args: []string{"-job-deadline", "-30"}, wantErr: "JobDeadlineS"},
		{name: "negative shards", args: []string{"-shards", "-2"}, wantErr: "Shards"},
		{name: "router ok", args: []string{"-nodes", "1"}, want: func(o *options) { o.nodes = 1 }},
		{name: "router nodes ok", args: []string{"-nodes", "5", "-shards", "1"},
			want: func(o *options) { o.nodes, o.pool.Shards = 5, 1 }},
		{name: "negative nodes", args: []string{"-nodes", "-1"}, wantErr: "-nodes"},
		{name: "router flag gone", args: []string{"-router"}, wantErr: "not defined: -router"},

		{name: "slo ok", args: []string{"-slo"}, want: func(o *options) { o.pool.SLO = true }},
		{name: "slo full ok",
			args: []string{"-slo", "-slo-tenants", "alice=gold, bob=bronze", "-slo-default", "silver",
				"-slo-high", "2.5", "-slo-low", "1.25", "-slo-queue-bound", "8", "-slo-budget", "32"},
			want: func(o *options) {
				o.pool.SLO, o.pool.SLOTenantTiers, o.pool.SLODefaultClass = true, map[string]string{"alice": "gold", "bob": "bronze"}, "silver"
				o.pool.SLOHighWatermark, o.pool.SLOLowWatermark, o.pool.SLOQueueBound, o.pool.SLOBudgetUSD = 2.5, 1.25, 8, 32
			}},
		{name: "slo tenants without slo", args: []string{"-slo-tenants", "alice=gold"}, wantErr: "SLOTenantTiers requires SLO"},
		{name: "slo default without slo", args: []string{"-slo-default", "gold"}, wantErr: "SLODefaultClass requires SLO"},
		{name: "slo watermark without slo", args: []string{"-slo-high", "3"}, wantErr: "requires SLO"},
		{name: "slo queue bound without slo", args: []string{"-slo-queue-bound", "4"}, wantErr: "SLOQueueBound requires SLO"},
		{name: "slo budget without slo", args: []string{"-slo-budget", "10"}, wantErr: "SLOBudgetUSD requires SLO"},
		{name: "negative watermark", args: []string{"-slo", "-slo-low", "-1"}, wantErr: "SLOLowWatermark"},
		{name: "inverted watermarks", args: []string{"-slo", "-slo-high", "1", "-slo-low", "2"}, wantErr: "watermark"},
		{name: "high below default low", args: []string{"-slo", "-slo-high", "0.5"}, wantErr: "watermark"},
		{name: "negative queue bound", args: []string{"-slo", "-slo-queue-bound", "-1"}, wantErr: "SLOQueueBound"},
		{name: "negative budget", args: []string{"-slo", "-slo-budget", "-0.5"}, wantErr: "SLOBudgetUSD"},
		{name: "malformed tenants", args: []string{"-slo", "-slo-tenants", "alice"}, wantErr: "tenant=class"},
		{name: "empty tenant class", args: []string{"-slo", "-slo-tenants", "alice="}, wantErr: "tenant=class"},
		{name: "duplicate tenant", args: []string{"-slo", "-slo-tenants", "a=gold,a=bronze"}, wantErr: "twice"},
		{name: "unknown tenant class", args: []string{"-slo", "-slo-tenants", "alice=platinum"}, wantErr: "platinum"},
		{name: "unknown default class", args: []string{"-slo", "-slo-default", "platinum"}, wantErr: "platinum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parse(%q): unexpected error %v", tc.args, err)
				}
				want := defaults
				tc.want(&want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parse(%q) = %+v, want %+v", tc.args, got, want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parse(%q) error = %v, want one naming %s", tc.args, err, tc.wantErr)
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

	// The server's ReadTimeout runs from when it starts reading the
	// connection, before the client has written anything: the clock starts
	// before the dial, so a disconnect at ReadTimeout is never measured short.
	stalled := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/jobs HTTP/1.1\r\nHost: murakkabd\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n{\"tenant\":")
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
