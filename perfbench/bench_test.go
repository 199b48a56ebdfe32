package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The metric tables in metrics.go and BENCHMARK.json must name the same
// metrics with the same units and directions.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := loadBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// Every workload, run at a tiny size, passes its checks and prints every
// metric of its mode by name with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rc := runConfig{workload: name, seed: 7, seconds: 1, trace: trace}
			var out bytes.Buffer
			res, err := report(&out, rc, workloads[name], workloads[name].run(rc))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last result
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if !res.Correct || !last.Correct || last.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", name, trace, last.Correct, last.Attempted, out.Bytes())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// quartiles agrees with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1, 9}, 1, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
