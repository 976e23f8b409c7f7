// Command bench is the repository's benchmark: four seeded workloads
// (train, point, batch, fleet), end-to-end metrics measured with
// tracing off, and a traced run that walks a sample of each workload's
// operations down the kernel → core → handler → HTTP → router ladder.
// README.md says why each workload and metric exists and how to read
// the output; BENCHMARK.json at the repository root declares them to
// the driver.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run; the last
//	                                                  stdout line is its JSON
//	bench -seed N [-trace 1] [-sets 2]                every workload, each in
//	                                                  a fresh child process
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload only (train, point, batch, fleet); default: all, each in a child process")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed region")
	trace := fs.Int("trace", 0, "1: after the untraced region, run the traced ladder and report the per-layer metrics")
	sets := fs.Int("sets", 1, "run the whole suite this many times and compare the sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *sets < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *workload == "" {
		return runSuite(*seed, *seconds, *trace == 1, *sets, stdout, stderr)
	}
	p := params{workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, scale: 1, log: stdout}
	res, err := runWorkload(p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	specs := endToEnd
	name := *workload
	if p.trace {
		specs, name = perLayer, name+"-trace"
	}
	for _, m := range specs {
		fmt.Fprintf(stdout, "%s %s %v %s\n", *workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, name+".json"), append(line, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(p params) (*result, error) {
	switch p.workload {
	case "train":
		return runTrain(p)
	case "point", "batch", "fleet":
		return runServing(p)
	}
	return nil, fmt.Errorf("unknown workload (want train, point, batch or fleet)")
}

// child runs one workload in a fresh process of this binary, echoes its
// report, and returns the result on its last line.
func child(workload string, seed uint64, seconds int, trace bool, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	return &res, nil
}

// runSuite runs every workload, once untraced and with trace once
// traced, sets times over. Two sets of the same code must agree on
// every end-to-end metric within the metric's own bound.
func runSuite(seed uint64, seconds int, trace bool, sets int, stdout, stderr io.Writer) int {
	code := 0
	runs := make([]map[string]*result, sets)
	for set := range runs {
		runs[set] = make(map[string]*result)
		for _, w := range workloads {
			res, err := child(w.Name, seed, seconds, false, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			runs[set][w.Name] = res
			if !res.Correct {
				code = 1
			}
			if !trace {
				continue
			}
			if res, err = child(w.Name, seed, seconds, true, stdout, stderr); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	for set := 1; set < sets; set++ {
		fmt.Fprintf(stdout, "# sets 1 and %d: workload metric first second worse_by bound\n", set+1)
		for _, w := range workloads {
			for _, m := range endToEnd {
				a, b := runs[0][w.Name].Metrics[m.Name].Value, runs[set][w.Name].Metrics[m.Name].Value
				worse := (b - a) / a
				if m.Better == higher {
					worse = -worse
				}
				verdict := ""
				if math.Abs(worse) > m.Bound {
					verdict, code = "  DISAGREE", 1
				}
				fmt.Fprintf(stdout, "# sets %s %s %v %v %+.2f%% %.0f%%%s\n", w.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	return code
}
