package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json and the driver in
// step: the workloads it names exist, and the metrics it gates are the
// ones a run prints, with the same units.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		d, err := findWorkload(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if d.why != w.Why {
			t.Errorf("%s: why differs between BENCHMARK.json and the driver", w.Name)
		}
	}
	same := func(what string, got []entry, want []named) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the driver prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), driver %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, gatedE2E)
	same("per_layer", spec.PerLayer, layerMetrics)
}
