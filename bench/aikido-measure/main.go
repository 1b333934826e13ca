// Command aikido-measure is the repository's end-to-end benchmark. It runs
// one named workload through the public core API, checks every run's
// findings, and prints the end-to-end metrics: host time per guest memory
// reference, set-up time, allocations, resident memory and the simulated
// slowdown over native. With -trace 1 it instead makes a traced run that
// times every call into each layer from outside and prints per-layer
// host time and exact simulated cycles.
//
// Usage:
//
//	go run ./aikido-measure -workload parsec-aikido -seed 1 -seconds 20 -trace 0
//	go run ./aikido-measure -workload all
//
// (from the bench directory; bench/run.sh builds and runs it from the
// repository root). The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md for
// the metric dictionary and the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; 0 keeps the committed specs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run and prints per-layer metrics")
	flag.StringVar(&o.chrome, "chrome", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
	flag.Parse()
	if o.workload == "" || flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.scale = 1
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	rep, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aikido-measure:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aikido-measure:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runAll measures every workload, each in a process of its own so that
// resident memory and the heap start fresh, one after another.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aikido-measure:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
		if o.trace {
			args[len(args)-1] = "1"
		}
		if o.chrome != "" {
			args = append(args, "-chrome", strings.TrimSuffix(o.chrome, ".json")+"-"+w.name+".json")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "aikido-measure: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result line.
func (r *report) print(w io.Writer) error {
	o := r.opts
	fmt.Fprintf(w, "# aikido-measure workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s host.calib_ns=%.0f min=%.0f\n",
		r.host.CPU, r.host.NProc, r.host.GOMAXPROCS, r.host.Go, r.calibNs, r.calibMin)
	fmt.Fprintf(w, "# cells=%d passes=%d traced_passes=%d attempted=%d failed=%d failed_frac=%g\n",
		r.cells, r.passes, r.traced, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	if o.trace {
		fmt.Fprintf(w, "# spans=%d dropped_spans=%d\n", r.spans, r.dropped)
	}
	const maxShown = 20
	for i, f := range r.failures {
		if i == maxShown {
			fmt.Fprintf(w, "FAIL ... %d more\n", len(r.failures)-maxShown)
			break
		}
		fmt.Fprintln(w, "FAIL", f)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		samples := "exact"
		if m.n > 0 {
			samples = fmt.Sprintf("n=%d %s", m.n, m.of)
		}
		if m.raw != 0 {
			samples += fmt.Sprintf(", host-normalized from %.6g", m.raw)
		}
		fmt.Fprintf(w, "%-34s %16.6g %-12s %s\n", n, m.Value, m.Unit, samples)
	}
	b, err := json.Marshal(result{Correct: r.attempted > 0 && r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
