package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the internal/ packages the CPU profile is attributed to.
// Self time anywhere else in tengig, in the benchmark or in the standard
// library goes to cpu.other; the Go runtime has its own share.
var cpuLayers = []string{
	"sim", "tcp", "host", "nic", "pci", "mem", "phys", "wan", "fabric",
	"netem", "telemetry", "pdes",
}

// cpuShares turns a CPU profile into each layer's share of the sampled self
// time, in percent, using the Go toolchain's pprof. The shares sum to 100.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-unit=ns", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return sharesFromTop(out)
}

// sharesFromTop parses `pprof -top -unit=ns` output: after the header line,
// each line is "flat flat% sum% cum cum% function".
func sharesFromTop(top []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(top))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		flat[layerOf(strings.Join(f[5:], " "))] += ns
		total += ns
	}
	if !header || total == 0 {
		return nil, fmt.Errorf("pprof: no samples in profile")
	}
	out := map[string]float64{}
	for _, l := range append(cpuLayers, "runtime", "other") {
		out["cpu."+l] = 100 * flat[l] / total
	}
	return out, nil
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	for _, l := range cpuLayers {
		if pkg == "tengig/internal/"+l {
			return l
		}
	}
	return "other"
}
