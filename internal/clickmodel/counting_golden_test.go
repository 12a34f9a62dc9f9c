package clickmodel

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

// countingGolden is what commit 57071f2 — the last one whose SDBN,
// Cascade and DCM each had a counting kernel of their own — fitted with
// FitLog on two synthParityLog seeds: one line per parameter, the value
// as math.Float64bits. To write it again, check out that commit, copy
// this file into internal/clickmodel and run
//
//	COUNTING_GOLDEN_WRITE=1 go test ./internal/clickmodel -run TestCountingFitMatchesParentGolden
const countingGolden = "testdata/parent_57071f2/counting_golden.txt"

// countingFitLines fits the three counting models on one seed's log and
// renders every fitted parameter, sorted. The golden lists what the
// parent's maps held: every pair of each model's table, except that
// SDBN's satisfaction map held only the clicked pairs — the ones the
// reference estimator gives a satisfaction.
func countingFitLines(t *testing.T, seed int64) []string {
	t.Helper()
	sessions := synthParityLog(seed, 1500)
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	sdbn, cascade, dcm := NewSDBN(), NewCascade(), NewDCM()
	for _, m := range []Model{sdbn, cascade, dcm} {
		if err := m.FitLog(c); err != nil {
			t.Fatal(err)
		}
	}
	_, clicked := refSDBN(sessions, sdbn.LaplaceA, sdbn.LaplaceB)
	var lines []string
	perPair := func(what string, tab *pairTable, vals []float64, held map[qd]float64) {
		for p, k := range tab.pairs {
			if _, ok := held[k]; held == nil || ok {
				lines = append(lines, fmt.Sprintf("%d %s %s %s %016x", seed, what, k.q, k.d, math.Float64bits(vals[p])))
			}
		}
	}
	perPair("sdbn.a", sdbn.pairs, sdbn.attr, nil)
	perPair("sdbn.s", sdbn.pairs, sdbn.sat, clicked)
	perPair("cascade.alpha", cascade.pairs, cascade.alphas, nil)
	perPair("dcm.alpha", dcm.pairs, dcm.alphas, nil)
	for i, v := range dcm.Lambda {
		lines = append(lines, fmt.Sprintf("%d dcm.lambda %02d - %016x", seed, i, math.Float64bits(v)))
	}
	sort.Strings(lines)
	return lines
}

// TestCountingFitMatchesParentGolden holds the one estimator to the
// three it replaced, by bits: the parity suites compare FitLog with
// FitStats, which are now the same code.
func TestCountingFitMatchesParentGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{20190408, 57071} {
		for _, line := range countingFitLines(t, seed) {
			got.WriteString(line + "\n")
		}
	}
	if os.Getenv("COUNTING_GOLDEN_WRITE") != "" {
		if err := os.WriteFile(countingGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countingGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d: fitted %q, the parent fitted %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d parameter lines fitted, the parent fitted %d", len(gl)-1, len(wl)-1)
	}
}
