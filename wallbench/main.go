// Command wallbench is the repository's wall-clock benchmark: it runs a
// STAR cluster on the real runtime inside this one process, loads it with
// the engine's own closed-loop generators plus an open-loop session
// client that reaches it through the core front door, checks that the
// cluster's outputs are correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// benchmark wrapper installed; with -trace 1 the run wraps the seams the
// engine accepts (workload, procedures, transport, epoch trace, runtime
// metrics) and reports per-layer metrics instead. See README.md.
//
// Run it from the repository root through the wrapper script, which
// builds the binary inside the checkout:
//
//	bash wallbench/run.sh --workload ycsb-local --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one benchmark and prints its result. It
// returns the process exit code: 0 only when the run completed and its
// correctness gate passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the engine and the session client's generator")
	seconds := fs.Float64("seconds", 20, "seconds measured, split evenly over the trials")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	runDir := fs.String("dir", ".bench_build/wallbench-run", "scratch directory for recovery logs, removed after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "wallbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	sp.window = time.Duration(*seconds * float64(time.Second) / float64(sp.trials))

	res, err := runBench(sp, *seed, *trace == 1, *runDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "wallbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "wallbench:", err)
		return 1
	}
	if !res.Correct {
		for _, v := range res.violations {
			fmt.Fprintln(stderr, "wallbench: correctness gate:", v)
		}
		return 1
	}
	return 0
}

// result is one run's outcome: the gate's verdict, the session client's
// request counts and the reported metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	violations []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes a readable table of the metrics and then the JSON
// result as the last line.
func printResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err) // a NaN or Inf metric
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
