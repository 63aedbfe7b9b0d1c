package serving

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateArms = flag.Bool("update-arms", false, "rewrite testdata/arms.golden from this build's answers")

// TestArmsGolden compares every sim-time measurement the benchmarks gate —
// both arms of the faults, reconfig and overload scenarios and the two
// measured cluster arms, at the benchmark configuration — with
// testdata/arms.golden, which was rendered by the commit before the three
// sim-time harnesses shared one arm runner. Arrivals and trace events that tie
// on time fire in the order they were scheduled, so a runner that schedules
// them differently moves these numbers; the golden is the check that sees it.
func TestArmsGolden(t *testing.T) {
	faults, err := RunFaults()
	if err != nil {
		t.Fatal(err)
	}
	reconfig, err := RunReconfig()
	if err != nil {
		t.Fatal(err)
	}
	overload, err := RunOverload(DefaultOverloadX)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := RunCluster(DefaultClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %+v\n", *faults)
	fmt.Fprintf(&b, "reconfig: %+v\n", *reconfig)
	fmt.Fprintf(&b, "overload: %+v\n", *overload)
	fmt.Fprintf(&b, "cluster one node: %+v\n", cl.OneNode)
	fmt.Fprintf(&b, "cluster three nodes: %+v\n", cl.ThreeNode)
	got := b.String()

	const path = "testdata/arms.golden"
	if *updateArms {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("sim-time arms moved (-update-arms rewrites the golden, for an intended change only):\ngot:\n%swant:\n%s", got, want)
	}
}
