package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is the driver's view of this program; the metric and
// workload names in it must be exactly the ones the program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []boundSpec                   `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}

	printed := map[string]bool{}
	for _, name := range endToEndOrder {
		printed[name] = true
	}
	sawSetup := false
	for _, m := range doc.EndToEnd {
		if !printed[m.Name] {
			t.Errorf("end_to_end metric %s is not one the program prints", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s has bound %v", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end_to_end metric %s has better=%q", m.Name, m.Better)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if len(doc.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program declares %d", len(doc.PerLayer), len(perLayerUnits))
	}
	for _, m := range doc.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer metric %s (%s): the program declares unit %q (declared: %v)", m.Name, m.Unit, unit, ok)
		}
	}
}
