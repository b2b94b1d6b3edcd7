// Command perfbench is the repository's benchmark. It drives one
// workload through a public entry point the way its users do, checks
// every output, and prints the metrics as one JSON object on the last
// line of standard output:
//
//	perfbench/run.sh --workload ea-paper --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for the input mixes and what each stresses):
//
//	ea-paper    the "ea" codec through the library, paper defaults
//	serve-sync  tcompd /v1/compress + /v1/decompress, 2 closed-loop clients
//	flow-async  tcompd /v1/flows, 2 closed-loop clients
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it also replays the same inputs through the layers' public functions
// with spans kept in memory, and reports the per-layer metrics; the
// spans are written to the output directory when the run ends.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0.
// Each has the same meaning on every workload; README.md maps them to
// the workload-specific names printed above the JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb_mean", "MB"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"rate_pct", "%"},
}

// serveCodecs are the codecs serve-sync requests; the EA is left to
// ea-paper because one EA request costs as much as thousands of these.
var serveCodecs = []string{"golomb", "fdr", "rl", "selhuff", "9c", "9chc"}

// perLayer lists the metrics every workload reports with --trace 1. A
// layer the workload does not run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// ea-paper
		{"core.compress_s", "s"},
		{"ea.evals", "count"},
		{"ea.generations", "count"},
		{"ea.eval_us", "us"},
		{"ea.useful_gen_ratio", "ratio"},
		{"ea.allocs_per_eval", "count"},
		{"blockcode.distinct_blocks", "count"},
		{"blockcode.dedup_ms", "ms"},
		{"blockcode.cover_us", "us"},
		{"huffman.build_us", "us"},
		{"ea.loop_us", "us"},
		{"blockcode.encode_ms", "ms"},
		{"pipeline.cpu_per_wall", "ratio"},
		// serve-sync
		{"testset.scan_mb_per_s", "MB/s"},
		{"testset.read_binary_mb_per_s", "MB/s"},
	}
	for _, c := range serveCodecs {
		defs = append(defs, metricDef{"codec." + c + ".compress_mb_per_s", "MB/s"})
	}
	for _, c := range serveCodecs {
		defs = append(defs, metricDef{"codec." + c + ".decompress_mb_per_s", "MB/s"})
	}
	return append(defs,
		metricDef{"codec.decompress_allocs_per_pattern", "count"},
		metricDef{"testset.write_mb_per_s", "MB/s"},
		metricDef{"serve.overhead_ms_p50", "ms"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.gc_per_kreq", "count"},
		metricDef{"serve.errors", "count"},
		// flow-async
		metricDef{"circuit.generate_ms", "ms"},
		metricDef{"circuit.parse_ms", "ms"},
		metricDef{"atpg.s", "s"},
		metricDef{"atpg.aborted_ratio", "ratio"},
		metricDef{"delay.s", "s"},
		metricDef{"flow.race_s", "s"},
		metricDef{"flow.race_share", "ratio"},
		metricDef{"stream.compress_s", "s"},
		metricDef{"stream.verify_s", "s"},
		metricDef{"decoder.source_compress_s", "s"},
		metricDef{"decoder.emit_ms", "ms"},
		metricDef{"jobs.queue_s", "s"},
		metricDef{"jobs.run_s", "s"},
		metricDef{"flow.client_wait_s", "s"},
		metricDef{"artifact.fetch_ms", "ms"},
		metricDef{"flow.coverage_pct", "%"},
		metricDef{"flow.stage_check_ratio", "ratio"},
		// every workload
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tcompd  string // daemon binary
	out     string // scratch directory for daemon stores, logs and spans
}

// report collects one run's outcome.
type report struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	text      []string // workload-specific metric lines printed above the JSON
	spans     *tracer
}

func newReport(trace bool) *report {
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	if trace {
		r.spans = &tracer{}
	}
	return r
}

// fail records a failed or wrong-output operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// named records a workload-specific metric for the text summary.
func (r *report) named(name string, value float64, unit string) {
	r.text = append(r.text, fmt.Sprintf("metric %-34s %14.6g %s", name, value, unit))
}

// workload is one benchmark mix. setup prepares inputs and services and
// returns the teardown that undoes it; run measures.
type workload struct {
	name  string
	setup func(cfg config) (teardown func(), err error)
	run   func(cfg config, r *report) error
}

var workloads = map[string]workload{}

// setupRuns is how often a run sets up; setup_s is the median, so one
// slow start (a cold page cache, a late scheduler) does not move it.
const setupRuns = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ea-paper, serve-sync or flow-async")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 30, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 replays the inputs through the layers with spans and reports per-layer metrics")
		tcompd  = flag.String("tcompd", ".bench_build/bin/tcompd", "tcompd binary")
		out     = flag.String("out", ".bench_build/run", "scratch directory for daemon stores, logs and span dumps")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, tcompd: *tcompd, out: *out}
	code, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run sets the workload up setupRuns times, measures, and prints the
// result. It returns the exit code: 0 only when every check passed.
func run(w workload, cfg config) (int, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return 1, err
	}
	r := newReport(cfg.trace)
	var setups []float64
	var teardown func()
	for i := 0; i < setupRuns; i++ {
		if teardown != nil {
			teardown()
		}
		start := time.Now()
		td, err := w.setup(cfg)
		if err != nil {
			return 1, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		teardown = td
	}
	r.e2e["setup_s"] = median(setups)
	err := w.run(cfg, r)
	teardown()
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.attempted == 0 {
		return 1, errors.New(w.name + ": no operation completed")
	}
	if cfg.trace {
		if err := r.spans.dump(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))); err != nil {
			return 1, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r.print(w.name, cfg)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(name string, cfg config) (int, error) {
	defs, values := endToEnd, r.e2e
	if cfg.trace {
		defs, values = perLayer, r.layer
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			r.fail("end-to-end metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", d.name, v)
			v = 0
		}
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}

	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "# workload %s seed %d seconds %.0f trace %v\n", name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	for _, line := range r.text {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "metric %-34s %14.6g %s\n", "fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	if cfg.trace {
		stats, roots := r.spans.layers()
		printShares(out, name, stats, roots)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		return 1, err
	}
	if r.failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed their checks", r.failed, r.attempted)
	}
	return 0, nil
}
