// Command perfbench is the repository benchmark. It drives the scheduler
// through its public Go API and its binaries on four workloads, each chosen
// to load a different layer:
//
//   - train: curriculum training of MRSch on S4 (rollout, dfp TrainStep,
//     nn kernels), then a greedy evaluation of the trained model;
//   - eval: a campaign of S4 realism variants and the T4 trace under the
//     Heuristic and a trained MRSch model (the episode loop: sim, sched,
//     encode, dfp forward);
//   - campaign: the builtin paper campaign (almost all GA search);
//   - serve: mrsch-serve as its own process: S4 test splits scheduled
//     through it, a closed loop, and (traced run) an open loop on two
//     connections with hot model swaps.
//
// Run it from the repository root; run.sh builds it and the daemon:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
//
// Every workload prints the same metrics. With --trace 0 the last stdout
// line is a JSON object with the end-to-end ones: setup_s, peak_rss_mb,
// op_ms (the median time of one unit of the workload's work: a training,
// a campaign replicate, a served decision) and slowdown (the scheduling
// quality relative to the Heuristic on the same inputs). With --trace 1 a
// separate traced run reports the per-layer ones (see layers) with the
// tracing overhead. Every input derives from --seed; the program under
// test only receives the generated inputs. A preceding stdout line records
// the host fingerprint and run details, including the layer costs only
// some workloads have (TrainStep, GA picks, the daemon's split, the open
// loop's rate ladder). The benchmark's own tests run with `go test ./...`
// from this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(env *env) error
}{
	"train":    {runTrain, traceTrain},
	"eval":     {runEval, traceEval},
	"campaign": {runCampaign, traceCampaign},
	"serve":    {runServe, traceServe},
}

// endToEnd and perLayer are the metrics every workload prints with
// --trace 0 and --trace 1. BENCHMARK.json declares the same names; a run
// that prints another set is reported as incorrect. What the generic
// names measure on each workload is said where the workload sets them.
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "op_ms", "slowdown"}
	perLayer = []string{
		"sched.pick_us", "encode.encode_us", "sched.pass_self_us", "sim.self_ms", "experiments.resolve_ms",
		"sched.decisions", "sched.passes", "dfp.train_steps", "ga.picks", "serve.requests",
		"alloc.per_decision", "alloc.bytes_per_decision",
		"time.resolve_pct", "time.collect_pct", "time.reduce_pct", "time.pick_pct", "time.sched_pct",
		"time.sim_pct", "time.serve_pct", "trace.overhead_pct",
	}
)

// env is one benchmark invocation: its arguments, its scratch directory,
// and the report it fills in.
type env struct {
	seed    int64
	budget  time.Duration
	workdir string
	daemon  string // path of the mrsch-serve binary
	self    string // path of this binary (re-executed as the wire echo peer)
	rep     *report
	info    map[string]any
}

func main() {
	workload := flag.String("workload", "", "workload to run: train, eval, campaign or serve")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for model files and logs")
	daemon := flag.String("daemon", ".bench_build/mrsch-serve", "mrsch-serve binary for the serve workload")
	echo := flag.Bool("echo-server", false, "internal: serve bare wire frames back to the caller (transport floor peer)")
	flag.Parse()

	if *echo {
		if err := runEchoServer(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: echo server:", err)
			os.Exit(1)
		}
		return
	}
	// One P: dfp.Config.Workers defaults to GOMAXPROCS, so this pins the
	// TrainStep shard count — and with it the trained model's bytes and
	// the quality metrics — to one value on every host, and it keeps the
	// serial campaign paths from depending on an idle second core. The
	// serve workload raises it for its two client connections.
	runtime.GOMAXPROCS(1)
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload train|eval|campaign|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	e := &env{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		workdir: dir,
		daemon:  *daemon,
		self:    self,
		rep:     newReport(),
		info:    map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace},
	}
	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	if err := run(e); err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	want := append([]string(nil), endToEnd...)
	if *trace == 1 {
		want = append(want[:0], perLayer...)
	}
	sort.Strings(want)
	got := e.rep.metricNames()
	e.rep.check(slices.Equal(got, want), "printed metrics %v, want %v", got, want)
	e.info["host"] = hostFingerprint()
	if len(e.rep.problems) > 0 {
		e.info["problems"] = e.rep.problems
		for _, p := range e.rep.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	printJSON(e.info)
	printJSON(e.rep.result())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics, its operation counts, and the
// correctness problems its gates found.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op counts one attempted operation, failed when ok is false; the first
// few failures are kept as problems so a failing run says why.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// ops counts attempted operations of which failed failed.
func (r *report) ops(attempted, failed int, format string, args ...any) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check records a correctness gate that is not itself an operation.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	return result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// metricNames returns the report's metric names, sorted.
func (r *report) metricNames() []string {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// subSeed derives the i-th positive input seed of a run from the workload
// seed (splitmix64), so instances of one run are independent and the same
// seed always yields the same instances.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z%(1<<31-1)) + 1
}
