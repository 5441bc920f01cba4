// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the simulator or the live TCP lock ring, checks
// that the outputs are correct, and prints every metric by name and unit.
//
//	perfbench -workload sim-paper -seed 1 -seconds 10 -trace 0 -acquire-limit 1s
//
// With -trace 0 it prints the end-to-end metrics of an untraced run; with
// -trace 1 it runs the workload untraced and then traced, prints the
// per-layer metrics, the tracing overhead, and writes the span file under
// -out. The last line of standard output is the JSON result; the full
// record, with run metadata, is written next to the span file. The exit
// code is 1 when a correctness check fails and 2 when the run cannot be
// made at all. See README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec names one reported metric.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. BENCHMARK.json lists the same names (checked by a test).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_heap_bytes_per_node", "B"},
	{"acquire_p50_ms", "ms"},
	{"acquire_p99_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"success_ratio", "ratio"},
}

// perLayer are the single-layer metrics of a traced run, named
// <module>.<metric>. A layer a workload does not exercise reports 0.
var perLayer = []spec{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"protocol.msgs_per_grant", "count"},
	{"protocol.search_per_grant", "count"},
	{"protocol.token_per_grant", "count"},
	{"protocol.token_return_per_grant", "count"},
	{"protocol.search_fwd_per_grant", "count"},
	{"protocol.search_fwd_log2n", "count"},
	{"workload.take_s", "s"},
	{"driver.new_s", "s"},
	{"driver.schedule_s", "s"},
	{"driver.run_s", "s"},
	{"host.steps_per_grant", "count"},
	{"host.deliver_per_grant", "count"},
	{"host.timer_per_grant", "count"},
	{"host.request_per_grant", "count"},
	{"host.release_per_grant", "count"},
	{"shard.route_ns", "ns"},
	{"shard.split_s", "s"},
	{"shard.speedup", "ratio"},
	{"shard.slowest_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.shed", "count"},
	{"node.lock_entry_us", "us"},
	{"node.to_grant_ms", "ms"},
	{"node.wakeup_us", "us"},
	{"node.unlock_us_p50", "us"},
	{"node.unlock_us_p99", "us"},
	{"node.timer_steps_per_grant", "count"},
	{"transport.frames_per_grant", "count"},
	{"transport.batched_share", "ratio"},
	{"transport.frames_per_s", "1/s"},
	{"transport.hop_us_p50", "us"},
	{"transport.hop_us_p99", "us"},
	{"transport.queue_depth_max", "count"},
	{"transport.dropped", "count"},
	{"transport.reconnects", "count"},
	{"process.cpu_ms_per_grant", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.unexplained_share", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed         uint64
	seconds      time.Duration
	trace        bool
	acquireLimit time.Duration
	// spans collects the traced pass's spans; nil on untraced runs.
	spans *spanLog
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	// n is the sample count of a percentile or median; what names the
	// samples ("sessions", "reps", ...).
	n    int
	what string
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]value
	violations        []string
	// speed is the median host speed the CPU-bound metrics were scaled
	// by (see speed.go); 0 on live workloads, whose metrics are not.
	speed float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]value{}} }

func (o *outcome) set(name string, v float64, n int, what string) {
	o.metrics[name] = value{v: v, n: n, what: what}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner at benchmark size.
// BENCHMARK.json lists all but live-spin (see spinDefaults).
var workloads = map[string]func(runConfig) (*outcome, error){
	"sim-paper":  func(c runConfig) (*outcome, error) { return runSimPaper(c, paperDefaults) },
	"sim-shard":  func(c runConfig) (*outcome, error) { return runSimShard(c, shardDefaults) },
	"live-paced": func(c runConfig) (*outcome, error) { return runLive(c, pacedDefaults) },
	"live-spin":  func(c runConfig) (*outcome, error) { return runLive(c, spinDefaults) },
}

func main() {
	name := flag.String("workload", "", "workload: sim-paper, sim-shard, live-paced or live-spin")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	limit := flag.Duration("acquire-limit", 0, "per-session acquire limit of the live workloads, from the due instant")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the span file and the result record")
	writeDigests := flag.Bool("write-digests", false, "recompute the sim-paper table digests into testdata and exit")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	if *writeDigests {
		if err := writePaperDigests(filepath.Join("testdata", "sim_paper_digests.json")); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1"))
	}
	cfg := runConfig{
		seed:         *seed,
		seconds:      time.Duration(*seconds) * time.Second,
		trace:        *trace == 1,
		acquireLimit: *limit,
	}
	if cfg.trace {
		cfg.spans = newSpanLog()
	}
	meta := collectMeta(*name, cfg)
	fmt.Printf("perfbench meta %s\n", mustJSON(meta))
	o, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "perfbench: VIOLATION:", v)
	}
	if o.speed > 0 {
		fmt.Printf("perfbench host speed %.4f of the reference host\n", o.speed)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res, err := report(os.Stdout, o, specs, !cfg.trace)
	if err != nil {
		fatal(err)
	}
	if err := writeRecord(*out, *name, cfg, meta, o, res); err != nil {
		fatal(err)
	}
	fmt.Println(mustJSON(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// jsonMetric is one entry of the result's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable metric lines and assembles the result.
// With requireAll every metric must have been measured (the end-to-end
// set); otherwise a metric of a layer the workload does not exercise
// reads 0.
func report(w io.Writer, o *outcome, specs []spec, requireAll bool) (result, error) {
	res := result{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(specs)),
	}
	if o.attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok && requireAll {
			return res, fmt.Errorf("end-to-end metric %s not measured", s.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v.v)
		}
		count := ""
		if v.n > 0 {
			count = fmt.Sprintf("(%s=%d)", v.what, v.n)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", s.name, v.v, s.unit, count)
		res.Metrics[s.name] = jsonMetric{Value: v.v, Unit: s.unit}
	}
	return res, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// writeRecord writes the full result record — metadata, metrics with their
// sample counts, violations — and, on traced runs, the span file.
func writeRecord(dir, name string, cfg runConfig, meta runMeta, o *outcome, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", name, cfg.seed, trace)
	samples := make(map[string]int, len(o.metrics))
	for k, v := range o.metrics {
		if v.n > 0 {
			samples[k] = v.n
		}
	}
	rec := struct {
		Meta       runMeta               `json:"meta"`
		Correct    bool                  `json:"correct"`
		Attempted  int64                 `json:"attempted"`
		Failed     int64                 `json:"failed"`
		Metrics    map[string]jsonMetric `json:"metrics"`
		Samples    map[string]int        `json:"samples"`
		HostSpeed  float64               `json:"host_speed,omitempty"`
		Violations []string              `json:"violations"`
	}{meta, res.Correct, res.Attempted, res.Failed, res.Metrics, samples, o.speed, o.violations}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result-"+base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if cfg.spans == nil {
		return nil
	}
	path := filepath.Join(dir, "spans-"+base+".json")
	if err := cfg.spans.write(path); err != nil {
		return err
	}
	fmt.Printf("perfbench spans %s (%d spans)\n", path, cfg.spans.len())
	return nil
}

// runMeta is the provenance every result record carries.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Started    string `json:"started"`
}

func collectMeta(name string, cfg runConfig) runMeta {
	return runMeta{
		Workload:   name,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Trace:      cfg.trace,
		Commit:     gitCommit("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; a checkout that is not a repository reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
