// Command benchmark is the repository's end-to-end benchmark. It runs one
// seeded, fixed-work workload in-process against core.Deployment and
// prints every metric by name with its unit, the operations attempted and
// failed, and, as its last line, one JSON result object.
//
//	bash benchmark/run.sh --workload market --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of one plain
// run. With --trace 1 the command runs the workload twice, plain and then
// traced (every public call wrapped in a span, Access/Monitor/SubmitBatch
// performed step by step), and the result carries the per-layer metrics
// of the traced run plus the tracing overhead between the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// runCap bounds a whole invocation: past it, operations not yet started
// fail fast so a wedged cluster still produces a result in time.
const runCap = 150 * time.Second

// watchdog kills an invocation whose operations stopped returning at all.
const watchdog = 175 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: market, ingest or browse")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 10, "nominal measuring time; fixes the amount of work (see README)")
		trace    = flag.Int("trace", 0, "1 runs plain and traced and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "benchmark: no result after %s, giving up\n", watchdog)
		os.Exit(3)
	})

	hdr := hostHeader(*seed)
	printHeader(hdr)
	cfg := runConfig{seed: *seed, rounds: w.rounds(*seconds), deadline: time.Now().Add(runCap)}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runPlain(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printResult(w.name, res)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: attempted %d, failed %d, correct %t\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
