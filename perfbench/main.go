// Command perfbench is the repository's end-to-end benchmark. It builds
// its inputs from the Tennessee-Eastman simulator and attack models, drives
// the shipped `mspctool serve` and `mspctool replay` binaries as child
// processes, checks their outputs against a batch reference and prints
// every metric by name and unit. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload noc-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is the result object
// holding every end-to-end metric; with --trace 1 it holds every per-layer
// metric of a traced run instead. The line before it is the run's
// metadata, also kept under .perfbench/results/. A run whose outputs are
// wrong exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pcsmon"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runEnv locates the program under test and the per-run scratch
// directory.
type runEnv struct {
	mspctool string
	runDir   string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints: the metrics and the
// operation counts behind them.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+wlNOC+" or "+wlIncident)
		seed     = fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = fs.Int("seconds", 10, "length of the live phase's timed window in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root     = fs.String("root", ".", "repository root")
		work     = fs.String("work", ".perfbench", "work directory for binaries, input cache and scratch")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *seconds < 1 || *seconds > 60:
		err = fmt.Errorf("perfbench: -seconds %d must be in [1, 60]: %w", *seconds, pcsmon.ErrBadConfig)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("perfbench: -trace %d must be 0 or 1: %w", *trace, pcsmon.ErrBadConfig)
	}
	p := defaultPlan(*workload, *seed, *seconds, *trace == 1)
	if err == nil {
		err = p.validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res, meta, err := runBench(p, *root, *work, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", metaLine, resLine)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed: %v\n", res.Failed, res.Attempted, meta["failures"])
		return 1
	}
	return 0
}

// runBench runs one benchmark pass and returns its result and metadata.
func runBench(p plan, root, work string, log io.Writer) (*result, map[string]any, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	work, err = filepath.Abs(work)
	if err != nil {
		return nil, nil, err
	}
	env := &runEnv{mspctool: filepath.Join(work, "bin", "mspctool")}
	if _, err := os.Stat(env.mspctool); err != nil {
		return nil, nil, fmt.Errorf("mspctool binary: %w (build it with run.sh)", err)
	}
	if err := os.MkdirAll(filepath.Join(work, "runs"), 0o755); err != nil {
		return nil, nil, err
	}
	env.runDir, err = os.MkdirTemp(filepath.Join(work, "runs"), p.Workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = os.RemoveAll(env.runDir) }()

	t0 := time.Now()
	in, err := loadInputs(p, work)
	if err != nil {
		return nil, nil, err
	}
	sys, err := loadSystem(in.CalPath)
	if err != nil {
		return nil, nil, err
	}
	wantLive, err := references(sys, in, 1, func(u int) int { return in.Units[u].Onset })
	if err != nil {
		return nil, nil, err
	}
	wantReplay, err := references(sys, in, chainRepeats, func(int) int { return in.ReplayOnset })
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: inputs ready in %v (%d units, %d observations)\n",
		p.Workload, p.Seed, time.Since(t0).Round(time.Millisecond), len(in.Units), in.observations())

	led := &ledger{}
	live, err := runLive(p, in, env, wantLive, led)
	if err != nil {
		return nil, nil, err
	}
	met := map[string]metric{}
	meta := runMeta(p, root)
	meta["timed_window_s"] = live.windowSeconds
	meta["window_observations"] = live.windowObs
	meta["offered_obs_per_s"] = p.Rate
	meta["scored_limit_ms"] = float64(p.ScoredLimit) / float64(time.Millisecond)
	addSamples(meta, "scored", live.scored, 50, 90, 99)
	addSamples(meta, "alarm", live.alarms, 50, 90, 99)
	addSamples(meta, "verdict", live.verdicts, 50, 90, 99)
	meta["scored_probes_missing"] = live.missing
	var sliceP50, sliceP90 []float64
	for _, xs := range live.scoredSlices {
		sliceP50 = append(sliceP50, percentile(xs, 50))
		sliceP90 = append(sliceP90, percentile(xs, 90))
	}
	meta["scored_slice_p50_ms"] = sliceP50
	meta["scored_slice_p90_ms"] = sliceP90
	meta["sse_events_dropped"] = live.totals["control_events_dropped"]
	meta["drain_reply_lost"] = live.drainReplyLost
	meta["drain_ms"] = live.drain * 1000
	meta["peak_rss_mb"] = live.peakRSS
	meta["peak_rss_before_drain_mb"] = live.hwmBeforeDrain
	meta["gen.late_p99_ms"] = percentile(live.late, 99)
	lastDue := time.Duration(0)
	if n := in.observations(); n > 0 {
		lastDue = p.slotDue(n - 1)
	}
	backlog := live.windowSeconds - (lastDue.Seconds() - p.slotDue(in.WindowStart).Seconds())
	meta["backlog_drain_ms"] = backlog * 1000
	meta["scored_limit_met"] = live.missing == 0 && percentile(live.scored, 99) <= meta["scored_limit_ms"].(float64) &&
		backlog*1000 <= meta["scored_limit_ms"].(float64)

	rep, err := runReplay(p, in, env, wantReplay, led)
	if err != nil {
		return nil, nil, err
	}
	meta["setup_samples_s"] = live.setups
	meta["replay_setup_samples_s"] = rep.setups
	meta["ref_setup_samples_ms"] = live.refSetup
	meta["ref_window_samples_ms"] = live.refWindow
	windowFactor := hostFactor(live.refWindow)
	meta["host_factor_setup"] = hostFactor(live.refSetup)
	meta["host_factor_window"] = windowFactor
	meta["setup_raw_samples_s"] = live.setupsRaw
	meta["setup_raw_s"] = median(live.setupsRaw)
	meta["cpu_raw_us_per_obs"] = live.cpuPerObs
	meta["replay_throughput_samples"] = rep.throughput
	meta["replay_1core_samples"] = rep.oneCore
	meta["replay_cpu_us_per_obs"] = median(rep.cpuPerObs)
	// Within-run spreads of the pass samples, on the scale the steadiness
	// of run medians is judged.
	meta["replay_throughput_spread"] = spread(rep.throughput)
	meta["replay_1core_spread"] = spread(rep.oneCore)
	meta["setup_spread"] = spread(live.setups)
	if p.Trace {
		tr, err := runTrace(p, in, sys, live, env, led, log)
		if err != nil {
			return nil, nil, err
		}
		for name, v := range tr {
			met[name] = v
		}
		// Saturated replay throughput follows the shared host's CPU speed,
		// which drifts by a third between runs; the traced run reports it
		// instead of gating on it.
		met["throughput_obs_per_s"] = metric{median(rep.throughput), "1/s"}
		met["throughput_1core_obs_per_s"] = metric{median(rep.oneCore), "1/s"}
		met["replay.setup_s"] = metric{median(rep.setups), "s"}
	} else {
		met["setup_s"] = metric{median(live.setups), "s"}
		met["scored_p50_ms"] = metric{slicedPercentile(live.scoredSlices, 50), "ms"}
		met["scored_p90_ms"] = metric{slicedPercentile(live.scoredSlices, 90), "ms"}
		met["cpu_us_per_obs"] = metric{live.cpuPerObs * windowFactor, "us"}
		met["live_heap_mb"] = metric{live.liveHeap, "MB"}
	}
	for name, m := range met {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			led.op(fmt.Errorf("metric %s has no value", name))
			m.Value = 0
			met[name] = m
		}
	}
	attempted, failed, notes := led.counts()
	meta["attempted"], meta["failed"], meta["failures"] = attempted, failed, notes
	meta["failed_share"] = float64(failed) / float64(max(attempted, 1))
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: met}
	if err := saveResult(work, p, meta, res); err != nil {
		return nil, nil, err
	}
	return res, meta, nil
}

// addSamples records a latency distribution's sample count, the highest
// percentile it supports and the listed percentiles.
func addSamples(meta map[string]any, name string, xs []float64, ps ...float64) {
	meta[name+"_samples"] = len(xs)
	meta[name+"_highest_supported_percentile"] = highestSupported(len(xs), ps...)
	for _, p := range ps {
		if v := percentile(append([]float64(nil), xs...), p); !math.IsNaN(v) {
			meta[fmt.Sprintf("%s_p%g_ms", name, p)] = v
		}
	}
}

// runMeta describes the host, toolchain and source the run measured.
func runMeta(p plan, root string) map[string]any {
	gomax := os.Getenv("GOMAXPROCS")
	if gomax == "" {
		gomax = fmt.Sprint(runtime.NumCPU())
	}
	return map[string]any{
		"workload":         p.Workload,
		"seed":             p.Seed,
		"trace":            p.Trace,
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"go_version":       runtime.Version(),
		"child_gomaxprocs": gomax,
		"commit":           commit(root),
		"units":            p.Units,
		"started":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured source: the git commit when the checkout is a
// repository, otherwise "unknown".
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// saveResult keeps the run's metadata and result under work/results.
func saveResult(work string, p plan, meta map[string]any, res *result) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"meta": meta, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", p.Workload, p.Seed, p.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
