package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchFile is the part of BENCHMARK.json the comparator needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads every record line from the given files, or from every
// file in the given directories.
func loadRecords(path string) ([]record, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*")); err != nil {
			return nil, err
		}
	}
	var recs []record
	for _, f := range files {
		if err := func() error {
			fh, err := os.Open(f)
			if err != nil {
				return err
			}
			defer fh.Close()
			sc := bufio.NewScanner(fh)
			sc.Buffer(make([]byte, 1<<20), 1<<24)
			for sc.Scan() {
				var r record
				if json.Unmarshal(sc.Bytes(), &r) == nil && r.Perfbench != "" {
					recs = append(recs, r)
				}
			}
			return sc.Err()
		}(); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return recs, nil
}

type seriesKey struct {
	workload, metric string
	trace            bool
}

func group(recs []record) map[seriesKey][]float64 {
	out := map[seriesKey][]float64{}
	for _, r := range recs {
		if len(r.Errors) > 0 {
			continue // an incorrect run measures nothing
		}
		for name, m := range r.Metrics {
			k := seriesKey{r.Workload, name, r.Trace}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// compareMain prints, for every (metric, workload) pair in two result sets
// of the same code, each side's median and quartiles and whether the pair
// is within the metric's bound: both spreads (setup_s exempt) and the
// second median's drift in the worse direction. It returns 1 if any
// end-to-end pair is out of bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A B  (files or directories of saved standard output; run from the repository root)")
		return 2
	}
	bench, err := loadBench("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sets [2]map[seriesKey][]float64
	for i := range sets {
		recs, err := loadRecords(args[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sets[i] = group(recs)
	}
	type row struct {
		key          seriesKey
		better, unit string
		bound        float64 // 0: per-layer, no bound
		a, b         []float64
	}
	var rows []row
	for _, m := range bench.EndToEnd {
		for _, w := range workloadNames() {
			k := seriesKey{w, m.Name, false}
			rows = append(rows, row{k, m.Better, m.Unit, m.Bound, sets[0][k], sets[1][k]})
		}
	}
	for _, m := range bench.PerLayer {
		for _, w := range workloadNames() {
			k := seriesKey{w, m.Name, true}
			if len(sets[0][k])+len(sets[1][k]) > 0 {
				rows = append(rows, row{k, m.Better, m.Unit, 0, sets[0][k], sets[1][k]})
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].key.workload < rows[j].key.workload })

	fmt.Printf("%-12s %-28s %6s %13s %13s %13s %7s %13s %13s %13s %7s %7s %6s %s\n",
		"workload", "metric", "unit", "A.q1", "A.median", "A.q3", "A.sprd", "B.q1", "B.median", "B.q3", "B.sprd", "drift", "bound", "verdict")
	out := 0
	for _, r := range rows {
		if len(r.a) == 0 || len(r.b) == 0 {
			if r.bound > 0 {
				fmt.Printf("%-12s %-28s missing: %d runs in A, %d in B\n", r.key.workload, r.key.metric, len(r.a), len(r.b))
				out++
			}
			continue
		}
		ma, mb := median(r.a), median(r.b)
		a1, a3 := quartiles(r.a)
		b1, b3 := quartiles(r.b)
		sa, sb := spread(r.a), spread(r.b)
		drift := ratio(mb-ma, ma) // positive: B worse
		if r.better == "higher" {
			drift = -drift
		}
		verdict := "-"
		if r.bound > 0 {
			ok := drift <= r.bound
			if r.key.metric != "setup_s" {
				ok = ok && sa <= r.bound && sb <= r.bound
			}
			verdict = "within"
			if !ok {
				verdict = "OUT"
				out++
			}
		}
		fmt.Printf("%-12s %-28s %6s %13.4f %13.4f %13.4f %7.3f %13.4f %13.4f %13.4f %7.3f %7.3f %6.2f %s\n",
			r.key.workload, r.key.metric, r.unit, a1, ma, a3, sa, b1, mb, b3, sb, drift, r.bound, verdict)
	}
	if out > 0 {
		fmt.Printf("%d end-to-end pairs out of bound or missing\n", out)
		return 1
	}
	return 0
}
