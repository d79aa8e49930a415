package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func asJSONMetrics(defs []metricDef) []jsonMetric {
	out := make([]jsonMetric, len(defs))
	for i, d := range defs {
		out[i] = jsonMetric{d.Name, d.Unit, d.Better, d.Bound}
	}
	return out
}

// TestNamesMatchBenchmarkJSON keeps the tables in spec.go and the
// checked-in BENCHMARK.json from drifting apart.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if want := asJSONMetrics(endToEnd); !reflect.DeepEqual(b.EndToEnd, want) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n spec.go        %+v", b.EndToEnd, want)
	}
	if want := asJSONMetrics(perLayer); !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n spec.go        %+v", b.PerLayer, want)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}

func metricNames(defs []metricDef) map[string]bool {
	m := make(map[string]bool, len(defs))
	for _, d := range defs {
		m[d.Name] = true
	}
	return m
}

// checkResult asserts the oracle and the emitted names — never a timing.
func checkResult(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	for _, v := range r.violations {
		t.Error(v)
	}
	for _, v := range r.missed {
		t.Log("timing bound missed (not asserted):", v)
	}
	if r.Attempted == 0 {
		t.Error("nothing attempted")
	}
	if r.Failed != 0 {
		t.Errorf("%d of %d items failed", r.Failed, r.Attempted)
	}
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var emitted struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(line, &emitted); err != nil {
		t.Fatal(err)
	}
	want := metricNames(defs)
	for name, m := range emitted.Metrics {
		if !want[name] {
			t.Errorf("emitted %s, which BENCHMARK.json does not name", name)
		}
		if m.Unit == "" {
			t.Errorf("%s has no unit", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s was not emitted", name)
	}
}

// TestQuickSuite runs every workload once at -quick length, untraced,
// and the cheapest one traced with its replays.
func TestQuickSuite(t *testing.T) {
	const quick = 2 * time.Second
	for _, w := range workloads {
		r, err := runEndToEnd(w, 1, quick, true)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, r, endToEnd)
	}
	w, _ := workloadByName("lib_worldcup")
	r, err := runPerLayer(w, 1, quick, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, perLayer)
}
