package main

// -compare: two result files of the suite, judged with the bounds
// frozen in BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
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

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readResults(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for n, v := range r.EndToEnd {
			out[r.Workload][n] = append(out[r.Workload][n], v)
		}
	}
	return out, nil
}

// cell is one side of one workload × metric comparison.
type cell struct {
	n           int
	q1, med, q3 float64
}

func summarise(xs []float64) cell {
	c := cell{n: len(xs)}
	switch len(xs) {
	case 0:
	case 1:
		c.q1, c.med, c.q3 = xs[0], xs[0], xs[0]
	default:
		c.q1, c.med, c.q3 = quartiles(xs)
	}
	return c
}

// spread is the inter-quartile distance as a share of the median.
func (c cell) spread() float64 { return div(c.q3-c.q1, c.med) }

// verdict judges B against A: "regressed" when B's median is worse
// than A's by more than bound (as a share of A's median), "unresolved"
// when either side's own spread is wider than the bound, so that the
// medians cannot be told apart at that resolution, "ok" otherwise.
// worse is the signed share by which B is worse.
func verdict(a, b cell, better string, bound float64) (v string, worse float64) {
	worse = div(b.med-a.med, a.med)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "regressed", worse
	case a.spread() > bound || b.spread() > bound:
		return "unresolved", worse
	}
	return "ok", worse
}

func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	ra, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-12s %-15s %-7s %28s %28s %9s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "B worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := summarise(ra[wl.Name][m.Name]), summarise(rb[wl.Name][m.Name])
			if a.n == 0 || b.n == 0 {
				continue
			}
			v, worse := verdict(a, b, m.Better, m.Bound)
			regressed = regressed || v == "regressed"
			side := func(c cell) string { return fmt.Sprintf("%.5g [%.5g, %.5g] %d", c.med, c.q1, c.q3, c.n) }
			fmt.Fprintf(w, "%-12s %-15s %-7s %28s %28s %+8.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, side(a), side(b), 100*worse, 100*m.Bound, v)
		}
	}
	fmt.Fprintln(w, "B worse is (B median − A median) ÷ A median, signed so that positive is worse; bound is the share of A's median.")
	return regressed, nil
}
