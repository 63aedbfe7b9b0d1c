package experiments

import (
	"fmt"
	"io"
)

// artifacts are the paper artifacts Render knows, in the order "all" renders
// them. Each returns its text as the experiments command prints it.
var artifacts = []struct {
	name   string
	render func(csv bool) (string, error)
}{
	{"fig3", func(csv bool) (string, error) {
		res, err := Figure3()
		if err == nil && csv {
			return res.CSV(), nil
		}
		return line(res, err)
	}},
	{"table2", func(bool) (string, error) { return line(Table2()) }},
	{"table1", func(bool) (string, error) { return line(Table1()) }},
	{"overhead", func(bool) (string, error) { return line(Overhead()) }},
	{"multitenant", func(bool) (string, error) { return line(MultiTenant()) }},
	{"rebalance", func(bool) (string, error) { return line(RebalanceAblation()) }},
	{"quality", func(bool) (string, error) { return line(QualityExperiment(3)) }},
	{"multicloud", func(bool) (string, error) { return line(MultiCloud(DefaultCloudOptions())) }},
	{"loadsweep", func(bool) (string, error) {
		return line(LoadSweep([]float64{0.005, 0.01, 0.02, 0.05}, 600, 11))
	}},
}

// line is a result's text and a newline.
func line[T fmt.Stringer](res T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.String() + "\n", nil
}

// Render writes the paper artifact named exp to w — every one, in order, for
// "all"; nothing for a name it does not know — and Figure 3 as CSV when csv is
// set. An artifact's error stops the rendering, named after the artifact;
// what was rendered before it has been written.
func Render(w io.Writer, exp string, csv bool) error {
	for _, a := range artifacts {
		if exp != "all" && exp != a.name {
			continue
		}
		out, err := a.render(csv)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if _, err := io.WriteString(w, out); err != nil {
			return err
		}
	}
	return nil
}
