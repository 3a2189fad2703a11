package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"walrus"
	"walrus/internal/dataset"
)

// opsPerSecond freezes each workload's op count: a measured phase runs
// opsPerSecond × -seconds ops, so two runs of one seed do exactly the
// same work and counts repeat exactly. The values were calibrated on the
// 2-core reference box so that a phase, input rendering included, lasts
// about -seconds; see README.md.
//
// For serve_mixed it is the open-loop rate R, a quarter of the calibrated
// knee. At half the knee (400/s) the box's two cores were half busy, and
// a host that ran a third slower moved the search p50 by a third but the
// p95 by a half: queueing amplified the host's drift past the p95's
// bound. At 200/s the p95 moves with the p50.
var opsPerSecond = map[string]int{
	"ingest_extract":    700,
	"ingest_durable":    700,
	"query_pixels":      450,
	"query_stored_disk": 220,
	"serve_mixed":       200,
}

// Corpus sizes, in images.
const (
	warmupOps      = 256  // ingest ops run (and timed as set-up) before the measured phase
	queryCorpus    = 3000 // query_pixels and query_stored_disk
	serveCorpus    = 1500 // serve_mixed preload
	serveQueries   = 512  // distinct search bodies, Zipf-drawn
	oracleEvery    = 50   // every 50th query is checked against the linear scan
	replayEvery    = 4    // every 4th traced op has its sub-layer calls replayed
	verifyQueries  = 500  // post-ingest QueryByID checks on the ingest workloads
	setupRepeats   = 3    // set-ups per untraced run; setup_s is their median
	traceBlockOps  = 64   // traced and untraced ops alternate in blocks of this size
	traceOpsShare  = 5    // a traced run traces 1/5 of the untraced op count
	queryLimit     = 10   // Limit / k of every query
	maxFailureMsgs = 10
)

// runConfig is one invocation: one workload, one seed, one mode.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// TmpDir holds on-disk databases; it is inside the checkout and removed
	// when the run ends. OutDir receives result.json and the span files.
	TmpDir, OutDir string
	// Deadline stops a measured phase that runs far over its budget, so a
	// much slower machine or change still ends inside the driver's cap. A
	// phase cut short reports what it measured, with the op it stopped at
	// in Ops["cut_short_at"]: the usual cause is the host stalling for a
	// minute, which says nothing about the program's outputs, and the
	// windows' median does not see it.
	Deadline time.Time
}

// setups is how many times the starting state is built: three for the
// median in setup_s, once in a traced run, which does not report it.
func (c runConfig) setups() int {
	if c.Trace {
		return 1
	}
	return setupRepeats
}

// tracedOp reports whether op k of a traced run's measured phase is in a
// traced block. Blocks of traceBlockOps alternate, untraced first, so
// both halves cover the same range of catalog sizes.
func (c runConfig) tracedOp(k int) bool {
	return c.Trace && (k/traceBlockOps)%2 == 1
}

// ops is the workload's frozen op count for this run.
func (c runConfig) ops() int { return opsPerSecond[c.Workload] * c.Seconds }

func (c runConfig) overdue() bool { return time.Now().After(c.Deadline) }

// result is what one run reports.
type result struct {
	Workload   string               `json:"workload"`
	Trace      bool                 `json:"trace"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]float64   `json:"metrics"`
	Samples    map[string]int       `json:"sample_count"`
	Windows    map[string][]float64 `json:"windows"`
	Ops        map[string]int       `json:"ops"`
	CorpusHash string               `json:"corpus_sha256"`
	Failures   []string             `json:"failures,omitempty"`
	WallS      float64              `json:"wall_s"`
	// PhaseS is the wall time of the measured phase, input rendering
	// included: what -seconds budgets.
	PhaseS float64 `json:"measured_phase_s"`
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.Workload, Trace: cfg.Trace, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Windows: map[string][]float64{}, Ops: map[string]int{},
	}
}

// attempt counts one op or check; a non-empty failure counts it failed.
func (r *result) attempt(failure string) {
	r.Attempted++
	if failure != "" {
		r.Failed++
		if len(r.Failures) < maxFailureMsgs {
			r.Failures = append(r.Failures, failure)
		}
	}
}

func (r *result) check(err error, what string) {
	if err != nil {
		r.attempt(fmt.Sprintf("%s: %v", what, err))
	} else {
		r.attempt("")
	}
}

// setTimings derives the three timing metrics from the successful ops'
// latencies (milliseconds, op order) of a closed loop.
func (r *result) setTimings(latMS []float64) {
	r.setWindowed("p50_ms", medianOfWindows(latMS, p50))
	r.setWindowed("p95_ms", medianOfWindows(latMS, p95))
	r.setWindowed("ops_per_s", medianOfWindows(latMS, closedLoopRate))
}

func (r *result) setWindowed(name string, w windowed) {
	r.Metrics[name] = w.Value
	r.Windows[name] = w.Windows
	r.Samples[name] = w.Samples
}

// stopwatch accumulates the time spent inside calls into the program,
// leaving out the harness's own input rendering between them.
type stopwatch struct{ total time.Duration }

func (s *stopwatch) time(fn func() error) error {
	t := time.Now()
	err := fn()
	s.total += time.Since(t)
	return err
}

// setupMedian builds the workload's starting state `repeats` times,
// discarding all but the last, and returns the kept state with the
// median of the build times in seconds.
func setupMedian[T any](repeats int, build func() (T, time.Duration, error), discard func(T) error) (T, float64, error) {
	var kept T
	var times []float64
	for i := 0; i < repeats; i++ {
		state, d, err := build()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, d.Seconds())
		if i < repeats-1 {
			if err := discard(state); err != nil {
				return kept, 0, err
			}
			continue
		}
		kept = state
	}
	return kept, median(times), nil
}

// heapMB is the live heap after a forced collection, in MiB. keep must
// reference everything the workload's state consists of.
func heapMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tempDir makes a fresh directory under the run's scratch space.
func (c runConfig) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(c.TmpDir, prefix+"-")
}

func categoryOf(id string) string { return string(dataset.CategoryOf(id)) }

// queryParams are the parameters every benchmark query runs with: the
// paper's defaults, top 10, cache and prefilter as the database has them.
func queryParams() walrus.QueryParams {
	p := walrus.DefaultQueryParams()
	p.Limit = queryLimit
	return p
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// removeAll deletes scratch directories, reporting the first failure.
func removeAll(dirs ...string) error {
	var first error
	for _, d := range dirs {
		if d == "" {
			continue
		}
		if err := os.RemoveAll(d); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tracePath is where a traced run writes its spans.
func (c runConfig) tracePath() string {
	return filepath.Join(c.OutDir, "trace-"+c.Workload+".json")
}
