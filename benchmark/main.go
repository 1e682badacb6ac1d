// Command benchmark is the repository's one repeatable benchmark: five
// named workloads driven against the real engine (two over the wire
// protocol, three in process), four gated end-to-end metrics measured with
// tracing off, and a traced pass that yields per-layer numbers from
// outside the system. BENCHMARK.json at the repository root names it;
// README.md in this directory explains the workloads and the metrics.
//
// Modes:
//
//	-workload W -seed N -seconds S -trace 0|1   one run; the last line of output is its JSON result
//	[-sets K] [-seed N] [-workload W]           K sets of every workload, both passes; writes out/result-<seed>.json
//	-compare A.json B.json                      verdict per workload × end-to-end metric, non-zero exit on a regression
//	-smoke                                      every workload for 1 s: audits pass, every named metric is emitted
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds, which the driver
// passes as -seconds.
const defaultSeconds = 16

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all five)")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		sets     = flag.Int("sets", 1, "suite mode: how many sets of runs")
		dir      = flag.String("dir", "", "the benchmark's directory (default: ./benchmark, else .)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
		smoke    = flag.Bool("smoke", false, "run every workload for 1 s and check audits and metric names")
	)
	flag.Parse()
	runtime.GOMAXPROCS(threads())
	if *dir == "" {
		*dir = "."
		if _, err := os.Stat("benchmark/go.mod"); err == nil {
			*dir = "benchmark"
		}
	}
	spec, err := readSpec(filepath.Join(*dir, "..", "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	outDir := filepath.Join(*dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	defs := workloads
	if *workload != "" {
		def, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []workloadDef{def}
	}
	fmt.Printf("# GOMAXPROCS=%d (of %d CPUs) seed=%d seconds=%g\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, *seconds)

	switch {
	case *smoke:
		if err := smokeAll(defs, *seed, outDir); err != nil {
			fatal(err)
		}
	case *trace >= 0:
		if len(defs) != 1 {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		res, err := runOne(runConfig{def: defs[0], seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: outDir})
		if len(res.Metrics) > 0 { // also after a failed audit: the result then says "correct": false
			printMetrics(defs[0].name, res)
			line, _ := json.Marshal(res) // a struct of numbers, strings and a bool always marshals
			fmt.Println(string(line))
		}
		if err != nil {
			fatal(err)
		}
	default:
		if err := suite(defs, *seed, *seconds, *sets, outDir); err != nil {
			fatal(err)
		}
	}
}

// threads is the GOMAXPROCS the whole process — system and generator —
// runs on, and the number of connections a wire workload opens.
func threads() int { return min(runtime.NumCPU(), 4) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// ---- suite ----

// setResult is one workload's pair of runs within a set.
type setResult struct {
	Workload  string             `json:"workload"`
	Set       int                `json:"set"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

type resultFile struct {
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Threads int         `json:"gomaxprocs"`
	Runs    []setResult `json:"runs"`
}

// suite runs every workload sets times, each time once with tracing
// off and once traced, and writes out/result-<seed>.json. Set k uses
// seed+k, so the sets are ten different inputs, as the driver's are.
func suite(defs []workloadDef, seed int64, seconds float64, sets int, outDir string) error {
	file := resultFile{Seed: seed, Seconds: seconds, Threads: runtime.GOMAXPROCS(0)}
	for k := 0; k < sets; k++ {
		for _, def := range defs {
			sr := setResult{Workload: def.name, Set: k, Seed: seed + int64(k),
				EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
			for _, traced := range []bool{false, true} {
				res, err := runOne(runConfig{def: def, seed: sr.Seed, seconds: seconds, traced: traced, outDir: outDir})
				if err != nil {
					return err
				}
				printMetrics(def.name, res)
				into := sr.EndToEnd
				if traced {
					into = sr.PerLayer
				} else {
					sr.Attempted, sr.Failed = res.Attempted, res.Failed
				}
				for n, m := range res.Metrics {
					into[n] = m.Value
				}
			}
			file.Runs = append(file.Runs, sr)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%d.json", seed))
	fmt.Println("# wrote", path)
	return os.WriteFile(path, b, 0o644)
}

// smokeAll runs each workload for one second, both passes, and checks
// only what does not depend on the clock: the audit passed and every
// metric BENCHMARK.json names was emitted.
func smokeAll(defs []workloadDef, seed int64, outDir string) error {
	for _, def := range defs {
		for _, traced := range []bool{false, true} {
			res, err := runOne(runConfig{def: def, seed: seed, seconds: 1, traced: traced, smoke: true, outDir: outDir})
			if err != nil {
				return err
			}
			want := endToEnd
			if traced {
				want = perLayerDefs
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: %d metrics emitted, %d named", def.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					return fmt.Errorf("%s trace=%v: metric %s (%s) not emitted", def.name, traced, m.name, m.unit)
				}
			}
			fmt.Printf("%s trace=%v ok: %d attempted, %d failed\n", def.name, traced, res.Attempted, res.Failed)
		}
	}
	return nil
}
