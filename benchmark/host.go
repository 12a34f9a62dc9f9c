package main

import (
	"os"
	"runtime"
	"strings"
)

// hostShape is recorded with every result so two numbers are only ever
// compared when they came from the same kind of machine.
type hostShape struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func readHostShape() hostShape {
	h := hostShape{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// buildRevision asks the running server which commit it was built
// from (microserve_build_info on /metrics). A checkout that is not a
// git repository has none, and says so.
func buildRevision(sp *serverProc) string {
	resp, err := httpGet("http://" + sp.addr + "/metrics")
	if err != nil {
		return "unknown"
	}
	defer resp.Body.Close()
	prom, err := parseProm(resp.Body)
	if err != nil {
		return "unknown"
	}
	for key := range prom {
		if strings.HasPrefix(key, "microserve_build_info{") {
			rev := label(key, "revision")
			if rev == "" {
				return "unversioned"
			}
			if label(key, "modified") == "true" {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
