// Command bench is the WALRUS benchmark: five paper-scale workloads that
// reach every layer of the program through its public functions only.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// builds this package and runs one workload. With --trace 0 it measures
// the end-to-end metrics with no instrumentation attached; with --trace 1
// it re-runs the workload at a fifth of the op count with harness spans
// around the calls into each layer and prints the per-layer metrics. The
// last line of standard output is the result as one JSON object; the
// lines before it, and bench/out/result.json, are the same result for
// people. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envelope stamps a result file with where and how it was produced.
type envelope struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Git        string `json:"git_describe"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// PeakRSSMB is the process's resident-set high-water mark (Linux
	// VmHWM; 0 elsewhere): harness and program together, mostly the
	// rendered corpus during a bulk load.
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Results   []*result `json:"results"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all five)")
		seed      = flag.Int64("seed", 1, "the only source of randomness: inputs are a pure function of it")
		seconds   = flag.Int("seconds", 15, "measured-phase budget; op counts are opsPerSecond × seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from harness spans")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice on one seed and compare against the bounds")
		root      = flag.String("root", "", "checkout root (default: the nearest parent holding BENCHMARK.json)")
	)
	flag.Parse()
	// A soft ceiling for the one moment memory is large: a query workload's
	// bulk load holds its whole rendered corpus (0.8 GB), and the default
	// pacing would let garbage double that. Measured phases live in tens of
	// megabytes and never come near it.
	debug.SetMemoryLimit(1200 << 20)
	if err := run(*workload, *seed, *seconds, *trace, *selfcheck, *root); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, selfcheck bool, root string) error {
	if seconds < 1 || trace < 0 || trace > 1 || flag.NArg() > 0 {
		return fmt.Errorf("usage: -workload W -seed N -seconds S (>=1) -trace 0|1")
	}
	names, err := selectWorkloads(workload)
	if err != nil {
		return err
	}
	if root == "" {
		if root, err = findRoot(); err != nil {
			return err
		}
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmpDir, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)

	runOne := func(name string, traced bool) (*result, error) {
		cfg := runConfig{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, TmpDir: tmpDir, OutDir: outDir,
			// Three budgets over, a run is cut short rather than left to
			// hit the driver's per-run cap.
			Deadline: time.Now().Add(time.Duration(4*seconds)*time.Second + time.Minute)}
		start := time.Now()
		res, err := runWorkload(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.WallS = time.Since(start).Seconds()
		res.Correct = res.Failed == 0 && res.Attempted > 0 && len(res.Failures) == 0
		return res, nil
	}
	if selfcheck {
		return selfCheck(names, runOne)
	}

	env := envelope{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Git: gitDescribe(root), Seed: seed, Seconds: seconds, Trace: trace == 1}
	fmt.Printf("# go=%s GOMAXPROCS=%d nproc=%d git=%s seed=%d seconds=%d trace=%d\n",
		env.GoVersion, env.GOMAXPROCS, env.NProc, env.Git, seed, seconds, trace)
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	var last *result
	for _, name := range names {
		res, err := runOne(name, trace == 1)
		if err != nil {
			return err
		}
		env.Results = append(env.Results, res)
		printResult(res, defs)
		last = res
	}
	env.PeakRSSMB = peakRSSMB()
	fmt.Printf("# peak_rss_mb=%.0f\n", env.PeakRSSMB)
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	// The driver's line: the (last) workload's result.
	line, err := json.Marshal(driverLine(last, defs))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, res := range env.Results {
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d attempts failed: %s", res.Workload, res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
		}
	}
	return nil
}

func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.Workload {
	case "ingest_extract":
		return runIngest(cfg, false)
	case "ingest_durable":
		return runIngest(cfg, true)
	case "query_pixels":
		return runQuery(cfg, false)
	case "query_stored_disk":
		return runQuery(cfg, true)
	case "serve_mixed":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

func selectWorkloads(name string) ([]string, error) {
	var all []string
	for _, w := range workloads {
		if w.Name == name {
			return []string{name}, nil
		}
		all = append(all, w.Name)
	}
	if name == "" {
		return all, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(all, ", "))
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory; pass -root")
		}
		dir = parent
	}
}

// gitDescribe names the commit when the checkout is a git repository.
func gitDescribe(root string) string {
	out, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the resident-set high-water mark from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// printResult writes the human-readable lines: every metric by name with
// its unit, the samples behind it and its window values.
func printResult(res *result, defs []metricDef) {
	fmt.Printf("# %s corpus_sha256=%s attempted=%d failed=%d wall_s=%.1f measured_phase_s=%.1f ops=%v\n",
		res.Workload, res.CorpusHash, res.Attempted, res.Failed, res.WallS, res.PhaseS, res.Ops)
	for _, d := range defs {
		line := fmt.Sprintf("%s %s %.6g %s", res.Workload, d.Name, res.Metrics[d.Name], d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			line += fmt.Sprintf(" sample_count=%d", n)
			if strings.HasPrefix(d.Name, "p95") && supportedPercentile(n/numWindows(n)) < 95 {
				line += " (fewer than 10 samples beyond p95 per window)"
			}
		}
		if w := res.Windows[d.Name]; len(w) > 0 {
			line += fmt.Sprintf(" windows=%.5g", w)
		}
		fmt.Println(line)
	}
	for _, f := range res.Failures {
		fmt.Printf("# %s FAILURE %s\n", res.Workload, f)
	}
}

// driverLine is the one JSON object the driver reads.
func driverLine(res *result, defs []metricDef) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// selfCheck runs the untraced suite twice on the same code and seed and
// fails if any end-to-end metric moved, in its worse direction or the
// other, by more than its bound.
func selfCheck(names []string, runOne func(string, bool) (*result, error)) error {
	var bad []string
	for _, name := range names {
		var runs [2]*result
		for i := range runs {
			res, err := runOne(name, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: run %d incorrect: %s", name, i+1, strings.Join(res.Failures, "; "))
			}
			runs[i] = res
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name], runs[1].Metrics[d.Name]
			rel := 0.0
			if a != 0 {
				rel = (b - a) / a
			}
			verdict := "ok"
			if rel > d.Bound || rel < -d.Bound {
				verdict = "DISAGREE"
				bad = append(bad, name+"/"+d.Name)
			}
			fmt.Printf("%s %s run1=%.6g run2=%.6g %s diff=%+.2f%% bound=%.0f%% %s\n", name, d.Name, a, b, d.Unit, 100*rel, 100*d.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two runs of the same code disagree beyond the bound on %s", strings.Join(bad, ", "))
	}
	return nil
}
