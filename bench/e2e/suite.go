package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint says what machine and tree a result file came from; two
// files are comparable only when these agree.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
		if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(dirty)) > 0 {
			fp.Commit += "+dirty"
		}
	}
	return fp
}

// suiteResult is the result file of one run of every workload.
type suiteResult struct {
	Fingerprint fingerprint                `json:"fingerprint"`
	Seed        int64                      `json:"seed"`
	Seconds     int                        `json:"seconds"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// runAll runs every workload in a child process of its own, untraced
// and then traced, and writes <outDir>/result.json. It returns the
// process exit code.
func runAll(seed int64, seconds int, quick bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	suite := suiteResult{
		Fingerprint: machineFingerprint(),
		Seed:        seed,
		Seconds:     seconds,
		Workloads:   make(map[string]*workloadResult),
	}
	ok := true
	for _, w := range workloads {
		wr := &workloadResult{Correct: true}
		suite.Workloads[w.Name] = wr
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir,
			}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			var r result
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s trace %d: no result (%v, %v)\n", w.Name, trace, err, jerr)
				wr.Correct, ok = false, false
				continue
			}
			wr.Correct = wr.Correct && r.Correct && err == nil
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			if trace == 0 {
				wr.EndToEnd = r.Metrics
			} else {
				wr.PerLayer = r.Metrics
			}
		}
		ok = ok && wr.Correct
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	doc, _ := json.MarshalIndent(suite, "", "  ")
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("result file: %s (correct: %v)\n", path, ok)
	if !ok {
		return 1
	}
	return 0
}

// compareFiles prints, for every end-to-end metric × workload, how far
// the two result files differ next to the metric's bound. For two runs
// of one tree (bench/repeat.sh) any difference beyond the bound means
// the metric is too noisy to gate on. Returns the exit code.
func compareFiles(pathA, pathB string) int {
	var a, b suiteResult
	for path, dst := range map[string]*suiteResult{pathA: &a, pathB: &b} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, dst)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	if a.Fingerprint != b.Fingerprint {
		fmt.Printf("warning: fingerprints differ\n  A: %+v\n  B: %+v\n", a.Fingerprint, b.Fingerprint)
	} else {
		fmt.Printf("fingerprint: %+v\n", a.Fingerprint)
	}
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	code := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || !wa.Correct || !wb.Correct {
			fmt.Printf("%-18s missing or incorrect in one of the files\n", w.Name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			diff := ratio(math.Abs(vb-va), math.Abs(va))
			mark := ""
			if diff > d.Bound {
				mark, code = "  BEYOND BOUND", 1
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, diff*100, d.Bound*100, mark)
		}
	}
	return code
}
