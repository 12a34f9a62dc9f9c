package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// The fixtures under testdata/ were captured from a real microserve
// during a mixed_online run: /metrics before and after the closed
// phase, and the matching /debug/pprof/allocs?debug=1 documents.

func loadProm(t *testing.T, name string) promSample {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParsePromFixtures(t *testing.T) {
	before, after := loadProm(t, "metrics_before.txt"), loadProm(t, "metrics_after.txt")

	if v, ok := after["microserve_stream_accepted_total"]; !ok || v <= before["microserve_stream_accepted_total"] {
		t.Errorf("stream accepted counter: before %v after %v", before["microserve_stream_accepted_total"], v)
	}
	// Labelled histogram series keep their exposition spelling.
	key := series("microserve_engine_stage_duration_seconds", "_count", `stage="resolve"`)
	if _, ok := after[key]; !ok {
		t.Errorf("no series %s", key)
	}
	n, mean := histDelta(before, after, "microserve_mbsp_frame_duration_seconds", "")
	if n <= 0 || mean <= 0 || mean > 1 {
		t.Errorf("mbsp frame histogram delta: %v samples, mean %v s", n, mean)
	}
	n, mean = histDelta(before, after, "microserve_http_request_duration_seconds", `route="feedback"`)
	if n <= 0 || mean <= 0 || mean > 1 {
		t.Errorf("feedback route histogram delta: %v samples, mean %v s", n, mean)
	}
	// A family that gained nothing reports zero, not NaN.
	if n, mean := histDelta(before, after, "microserve_http_request_duration_seconds", `route="optimize"`); n != 0 || mean != 0 {
		t.Errorf("idle route delta = %v, %v", n, mean)
	}
	var build string
	for k := range after {
		if strings.HasPrefix(k, "microserve_build_info{") {
			build = k
		}
	}
	if label(build, "go_version") == "" {
		t.Errorf("build info series %q has no go_version label", build)
	}
	if label(build, "nonesuch") != "" {
		t.Error("label() invented a value")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm(strings.NewReader("metric_without_value\n")); err == nil {
		t.Error("a line without a value parsed")
	}
	if _, err := parseProm(strings.NewReader("m not-a-number\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
	p, err := parseProm(strings.NewReader("# HELP x y\n\nx{a=\"b\"} 1.5e-3\n"))
	if err != nil || p[`x{a="b"}`] != 1.5e-3 {
		t.Errorf("parsed %v, %v", p, err)
	}
}

func loadMem(t *testing.T, name string) memStats {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms, err := parseMemStatsFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestParseMemStatsFooterFixtures(t *testing.T) {
	before, after := loadMem(t, "allocs_before.txt"), loadMem(t, "allocs_after.txt")
	if len(after.PauseNs) != 256 {
		t.Fatalf("PauseNs has %d entries, want the runtime's 256", len(after.PauseNs))
	}
	if after.Mallocs <= before.Mallocs || after.TotalAlloc <= before.TotalAlloc || after.NumGC <= before.NumGC {
		t.Errorf("MemStats did not advance: before %+v after mallocs %d total %d gc %d", before.Mallocs, after.Mallocs, after.TotalAlloc, after.NumGC)
	}
	if p := pauseBetween(before, after); p <= 0 || p > time.Second {
		t.Errorf("GC pause between the fixtures = %v", p)
	}
	if _, err := parseMemStatsFooter(strings.NewReader("heap profile: 0: 0\n")); err == nil {
		t.Error("a profile without a MemStats footer parsed")
	}
}

func TestPauseBetween(t *testing.T) {
	ring := make([]uint64, 256)
	// GC n's pause lives at index (n+255)%256: cycles 255, 256, 257 wrap.
	ring[254], ring[255], ring[0] = 100, 200, 400
	before := memStats{NumGC: 254}
	after := memStats{NumGC: 257, PauseNs: ring}
	if got := pauseBetween(before, after); got != 700 {
		t.Errorf("wrapped pause sum = %v, want 700ns", got)
	}
	if got := pauseBetween(after, after); got != 0 {
		t.Errorf("no cycles must give 0, got %v", got)
	}
	// More cycles than the ring holds: the ring's total is scaled up.
	for i := range ring {
		ring[i] = 10
	}
	got := pauseBetween(memStats{NumGC: 0}, memStats{NumGC: 512, PauseNs: ring})
	if math.Abs(float64(got)-5120) > 1 {
		t.Errorf("scaled pause sum = %v, want 5120ns", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may contain spaces and parentheses.
	line := "1234 (micro serve) (x)) S 1 1234 1234 0 -1 4194560 500 0 0 0 321 45 0 0 20 0 7 0 100 1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	u, s, err := parseProcStat(line)
	if err != nil || u != 321 || s != 45 {
		t.Errorf("utime %d stime %d err %v, want 321 45", u, s, err)
	}
	if _, _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage parsed")
	}
	if kb, ok := parseStatusKB("VmHWM:\t  117432 kB", "VmHWM:"); !ok || kb != 117432 {
		t.Errorf("VmHWM parsed as %v %v", kb, ok)
	}
}
