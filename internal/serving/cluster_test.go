package serving

import (
	"reflect"
	"testing"
)

// testClusterOptions shrinks the default shape so the full measurement stays
// fast under -race.
func testClusterOptions() ClusterOptions {
	opts := DefaultClusterOptions()
	opts.Tenants = 24
	opts.JobsPerTenant = 1
	return opts
}

// TestRunClusterScalesAndSurvivesChurn holds the routed sim-time throughput
// scaling at 3 nodes over 1 (2.163 on the default shape today) and the churn
// arm's zero strands, on the default shape and on the shrunk one.
func TestRunClusterScalesAndSurvivesChurn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    ClusterOptions
		scaling float64
	}{
		// Even the shrunk trace must show real scaling: the ring spreads the
		// tenants, so the 3-node critical path is well under the 1-node one.
		{"shrunk", testClusterOptions(), 1.3},
		{"default", DefaultClusterOptions(), 1.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunCluster(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.OneNode.Completed != res.Jobs || res.ThreeNode.Completed != res.Jobs {
				t.Fatalf("incomplete arms: %+v", res)
			}
			if len(res.ThreeNode.NodeSimS) != 3 || len(res.OneNode.NodeSimS) != 1 {
				t.Fatalf("node rows: %+v", res)
			}
			if res.ScalingX < tc.scaling {
				t.Fatalf("scaling %v < %v: %+v", res.ScalingX, tc.scaling, res)
			}
			if res.Churn.Stranded != 0 {
				t.Fatalf("%d stranded jobs: %+v", res.Churn.Stranded, res.Churn)
			}
			if res.Churn.JoinBuilds != 0 {
				t.Fatalf("joined node rebuilt %d profiles instead of replicating", res.Churn.JoinBuilds)
			}
			if !res.Churn.TotalsMonotonic {
				t.Fatalf("cluster totals regressed during churn: %+v", res.Churn)
			}
			if res.Churn.TenantsMoved == 0 {
				t.Fatal("join+leave moved no tenants")
			}
		})
	}
}

// TestRunClusterMeasuredArmsDeterministic pins the harness's reproducibility:
// sequential waited submissions make each node's sim schedule a pure function
// of the trace, so the measured arms must be bit-identical across runs. (The
// churn arm is asynchronous by design and is excluded.)
func TestRunClusterMeasuredArmsDeterministic(t *testing.T) {
	opts := testClusterOptions()
	a, err := RunCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.OneNode, b.OneNode) || !reflect.DeepEqual(a.ThreeNode, b.ThreeNode) {
		t.Fatalf("measured arms diverged across identical runs:\n%+v\n%+v\nvs\n%+v\n%+v",
			a.OneNode, a.ThreeNode, b.OneNode, b.ThreeNode)
	}
	if a.ScalingX != b.ScalingX {
		t.Fatalf("scaling diverged: %v vs %v", a.ScalingX, b.ScalingX)
	}
}

func TestClusterTraceShape(t *testing.T) {
	opts := testClusterOptions()
	trace, err := clusterTrace(opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != opts.Tenants*opts.JobsPerTenant {
		t.Fatalf("trace length %d, want %d", len(trace), opts.Tenants*opts.JobsPerTenant)
	}
}
