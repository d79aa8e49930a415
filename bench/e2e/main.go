// Command e2e is the repository's end-to-end benchmark: it boots the
// real ingest→deliver stack in-process through its public APIs, drives
// it over loopback sockets from a raw-socket generator, checks a
// correctness oracle, and reports the end-to-end and per-layer metrics
// BENCHMARK.json names. See bench/README.md.
//
//	bash bench/run.sh                       # all workloads, both passes
//	bash bench/run.sh --workload lib_worldcup --seed 7 --seconds 20 --trace 0
//
// With --workload it measures that workload in this process and prints
// one JSON object as its last line; without, it runs every workload in
// a child process of its own (clean getrusage and RSS), untraced then
// traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run in this process (default: all, one child each)")
		seed    = flag.Int64("seed", 1, "seed for the workload's inputs: stream and API keys, key placement, trace")
		seconds = flag.Int("seconds", 20, "measured span in seconds, cut into one-second windows")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and isolated replays")
		quick   = flag.Bool("quick", false, "2 s measured span and short replays: exercises every path, measures nothing")
		outDir  = flag.String("out", "bench/out", "directory for trace and result files")
		compare = flag.Bool("compare", false, "compare two result files (args: A.json B.json) against the bounds")
	)
	flag.Parse()

	// The paper's machine had four cores; more would only add idle Ps.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	measure := time.Duration(*seconds) * time.Second
	if *quick {
		measure = 2 * time.Second
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *quick, *outDir))
	}

	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	var res *result
	var err error
	if *traceOn == 0 {
		res, err = runEndToEnd(w, *seed, measure, *quick)
	} else {
		res, err = runPerLayer(w, *seed, measure, *quick, *outDir)
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

// result is one invocation's report; its JSON form is the line the
// driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload   workload
	defs       []metricDef
	notes      []string
	violations []string // the oracle: conservation, order, format
	missed     []string // timing bounds: generator behind, latency bound
	// generatorBound: the table shows the mark in place of the
	// delivery latencies; the JSON line still carries the numbers.
	generatorBound bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult keeps exactly the metrics defs names, in their units; a
// value the run did not produce is a bug in the harness.
func newResult(w workload, defs []metricDef, values map[string]float64, phases ...*phase) (*result, error) {
	r := &result{Correct: true, Metrics: make(map[string]metric, len(defs)), workload: w, defs: defs}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		r.Metrics[d.Name] = metric{v, d.Unit}
	}
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.violations = append(r.violations, p.violations...)
		r.missed = append(r.missed, p.missed...)
		r.generatorBound = r.generatorBound || p.generatorBound()
	}
	r.Correct = len(r.violations) == 0 && len(r.missed) == 0
	return r, nil
}

// print writes the human-readable table and then, as the last line, the
// JSON object.
func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s — %s\n", r.workload.Name, r.workload.Why)
	for _, d := range r.defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better; regression beyond %.0f%%)", d.Better, d.Bound*100)
		}
		if r.generatorBound && strings.HasPrefix(d.Name, "deliver_") {
			fmt.Fprintf(f, "  %-44s %14s\n", d.Name, "generator_bound")
			continue
		}
		fmt.Fprintf(f, "  %-44s %14.6g %-8s%s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, bound)
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "  %s\n", n)
	}
	fmt.Fprintf(f, "  attempted %d items, failed %d\n", r.Attempted, r.Failed)
	for _, v := range r.violations {
		fmt.Fprintf(f, "  ORACLE: %s\n", v)
	}
	for _, v := range r.missed {
		fmt.Fprintf(f, "  BOUND: %s\n", v)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(f, "%s\n", line)
}

// setupRepeats is how many times an untraced invocation boots the
// stack; the median boot goes into setup_s. The first is the only cold
// one (its heap is not mapped yet) and the next few still run slow.
const setupRepeats = 9

// runEndToEnd is --trace 0: the stack booted setupRepeats times (three
// when quick), then one untraced phase on the last one.
//
// The collector is held off over the whole series, not just inside each
// boot: between two boots a heap goal back at its default lets the
// background scavenger hand the pages of the stack just closed back to
// the OS, and the next boot then pays page faults for them — 7 to 17 ms
// for the same work. Held, every boot after the first finds the heap
// collected (boot does that) and still mapped.
func runEndToEnd(w workload, seed int64, measure time.Duration, quick bool) (*result, error) {
	repeats := setupRepeats
	if quick {
		repeats = 3
	}
	var setups []float64
	var s *stack
	restoreGC := holdCollector()
	for i := 1; i <= repeats; i++ {
		var err error
		if s, err = boot(w, seed, false, measure); err != nil {
			restoreGC()
			return nil, fmt.Errorf("%s: set-up %d: %w", w.Name, i, err)
		}
		setups = append(setups, s.setupS)
		if i < repeats {
			s.close()
		}
	}
	restoreGC()
	p, err := s.run(measure)
	if err != nil {
		return nil, err
	}
	m := p.endToEndMetrics()
	// The benchmark's time before it measures: the median boot plus the
	// fixed warm-up. bench/README.md, "setup_s", says why the warm-up is
	// counted in.
	m["setup_s"] = median(setups) + warmup(measure).Seconds()
	r, err := newResult(w, endToEnd, m, p)
	if err != nil {
		return nil, err
	}
	r.notes = p.notes()
	return r, nil
}
