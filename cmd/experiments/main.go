// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all          # everything
//	experiments -exp fig3         # Figure 3 traces + utilization
//	experiments -exp table1       # Table 1 lever ablations
//	experiments -exp table2       # Table 2 energy & time
//	experiments -exp overhead     # §3.3 overhead accounting
//	experiments -exp multitenant  # Figure 2 multiplexing
//	experiments -exp rebalance    # workflow-aware scaling ablation
//	experiments -exp fig3 -csv    # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "fig3 | table1 | table2 | overhead | multitenant | rebalance | quality | loadsweep | multicloud | all")
	csv := flag.Bool("csv", false, "emit CSV (fig3 only)")
	flag.Parse()
	if err := experiments.Render(os.Stdout, *exp, *csv); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
