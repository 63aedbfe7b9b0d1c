package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// fingerprint identifies where and on what a result was measured: raw
// wall-clock numbers do not travel between hosts, so every result names its
// host and carries sim.ns_per_event as the calibration unit.
type fingerprint struct {
	CPUModel      string  `json:"cpu_model"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	SimNsPerEvent float64 `json:"sim_ns_per_event"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:      "unknown",
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		SimNsPerEvent: simNsPerEvent(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	fp.Commit = commit()
	return fp
}

// commit names the source the binary was built from: the revision the go tool
// stamped into a `go build` inside a git checkout, else (`go run` stamps
// nothing) what git says about the working directory, each with "-dirty" when
// files differ from that revision. A source archive has neither: "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*").Output()
	if rev := strings.TrimSpace(string(out)); err == nil && rev != "" {
		return rev
	}
	return "unknown"
}

// stolenTicks is the CPU time the hypervisor has so far given to other guests
// while one of this machine's cores wanted to run: the steal column (the
// eighth, in 1/100 s) of /proc/stat, summed over the per-core lines — each core
// rounds down on its own, so the sum moves sooner than the total line does. ok
// is false where the file or the column is missing.
func stolenTicks() (ticks uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	return parseStolen(string(b))
}

func parseStolen(stat string) (ticks uint64, ok bool) {
	for line := range strings.Lines(stat) {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "cpu") {
			break // the cpu lines come first
		}
		if f[0] == "cpu" {
			continue // the total
		}
		if len(f) < 9 {
			return 0, false
		}
		n, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return 0, false
		}
		ticks, ok = ticks+n, true
	}
	return ticks, ok
}
