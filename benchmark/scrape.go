package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promSample is one scrape of the server's /metrics: every series
// keyed by its exposition spelling, e.g.
// `microserve_engine_stage_duration_seconds_sum{stage="batch"}`.
type promSample map[string]float64

// parseProm reads Prometheus text exposition (format 0.0.4) as
// microserve writes it: comment lines skipped, one "series value" pair
// per line, label values without embedded spaces or braces.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// series spells a series key from a family name, a suffix ("_sum",
// "_count" or "") and an optional inner label list.
func series(family, suffix, labels string) string {
	if labels == "" {
		return family + suffix
	}
	return family + suffix + "{" + labels + "}"
}

// histDelta returns how many samples a histogram family gained between
// two scrapes and their mean in seconds (0 when it gained none).
func histDelta(before, after promSample, family, labels string) (count, meanSeconds float64) {
	count = after[series(family, "_count", labels)] - before[series(family, "_count", labels)]
	if count <= 0 {
		return 0, 0
	}
	sum := after[series(family, "_sum", labels)] - before[series(family, "_sum", labels)]
	return count, sum / count
}

func counterDelta(before, after promSample, name string) float64 {
	return after[name] - before[name]
}

// label extracts one label value from a series key.
func label(key, name string) string {
	i := strings.Index(key, name+`="`)
	if i < 0 {
		return ""
	}
	rest := key[i+len(name)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// memStats is the subset of runtime.MemStats the pprof text footer
// carries that the proc.* metrics need.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint64
	PauseNs    []uint64 // circular: GC n's pause is PauseNs[(n+255)%256]
}

// parseMemStatsFooter reads the "# runtime.MemStats" footer of a
// /debug/pprof/allocs?debug=1 (or heap) document.
func parseMemStatsFooter(r io.Reader) (memStats, error) {
	var ms memStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	in := false
	seen := 0
	for sc.Scan() {
		line := sc.Text()
		if !in {
			in = strings.HasPrefix(line, "# runtime.MemStats")
			continue
		}
		key, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		var err error
		switch key {
		case "Mallocs":
			ms.Mallocs, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "TotalAlloc":
			ms.TotalAlloc, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "NumGC":
			ms.NumGC, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				var p uint64
				if p, err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
				ms.PauseNs = append(ms.PauseNs, p)
			}
			seen++
		}
		if err != nil {
			return ms, fmt.Errorf("MemStats footer %s: %v", key, err)
		}
	}
	if err := sc.Err(); err != nil {
		return ms, err
	}
	if seen < 4 {
		return ms, errors.New("no complete runtime.MemStats footer in the profile text")
	}
	return ms, nil
}

// pauseBetween sums the GC pauses of cycles (before.NumGC,
// after.NumGC] from after's circular pause buffer. When more cycles
// ran than the buffer holds, the buffer's total is scaled up.
func pauseBetween(before, after memStats) time.Duration {
	n := len(after.PauseNs)
	cycles := after.NumGC - before.NumGC
	if n == 0 || cycles == 0 {
		return 0
	}
	var sum uint64
	if cycles >= uint64(n) {
		for _, p := range after.PauseNs {
			sum += p
		}
		return time.Duration(float64(sum) * float64(cycles) / float64(n))
	}
	for gc := before.NumGC + 1; gc <= after.NumGC; gc++ {
		sum += after.PauseNs[(gc+uint64(n)-1)%uint64(n)]
	}
	return time.Duration(sum)
}

// scrape is one observation of the server from outside: /metrics and
// the MemStats footer of the pprof sidecar. CPU ticks are read
// separately, tight around the phase, so the cost of rendering these
// two documents is not billed to the phase.
type scrape struct {
	prom promSample
	mem  memStats
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(url string) (*http.Response, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp, nil
}

func takeScrape(sp *serverProc) (scrape, error) {
	var s scrape
	resp, err := httpGet("http://" + sp.addr + "/metrics")
	if err != nil {
		return s, err
	}
	s.prom, err = parseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	resp, err = httpGet("http://" + sp.debugAddr + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return s, err
	}
	s.mem, err = parseMemStatsFooter(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	return s, err
}
