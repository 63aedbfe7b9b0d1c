package repro

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var updateExperiments = flag.Bool("update-experiments", false, "rewrite testdata/experiments.golden from this tree")

// TestExperimentsGolden pins every paper artifact, rendered as
// `experiments -exp all` prints it (Figure 3, Tables 1 and 2, the overhead
// accounting, multiplexing, rebalancing, quality, multi-cloud, the load
// sweep), byte for byte against testdata/experiments.golden. The simulation is
// deterministic, so any change in what it computes shows here;
// -update-experiments rewrites the file, for an intended change only.
func TestExperimentsGolden(t *testing.T) {
	var b strings.Builder
	if err := experiments.Render(&b, "all", false); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/experiments.golden"
	if *updateExperiments {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("-exp all differs from %s at line %d (-update-experiments rewrites it, for an intended change only):\ngot:  %q\nwant: %q",
				path, i+1, line(gl, i), line(wl, i))
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
