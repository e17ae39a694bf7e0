package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads this command reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []metricSpec) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command reports %d", kind, len(file), len(code))
			return
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]",
					kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
