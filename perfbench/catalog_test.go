package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchFile struct {
	Command   []string
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the metrics
// the program reports in step, names and units both.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	f := readBenchFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics; the program reports %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s; program reports %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics; the program reports %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s; program reports %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the program has %d", names, len(workloads))
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]Spec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("bad metric name %q", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric %s listed twice", s.Name)
		}
		seen[s.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}
