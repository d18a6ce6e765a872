// Command bench is the unisched benchmark: five workloads, from pods posted
// over HTTP to a durable daemon down to fifty-thousand-node scans, each
// measured end to end and, in a separate traced run, attributed layer by
// layer. BENCHMARK.json at the root of the repository names the workloads,
// the metrics and their regression bounds; README.md here says why each is
// what it is.
//
//	bash bench/run.sh --workload serve-http --seed 1 --seconds 10 --trace 0
//	go -C bench run . -workload all -seed 1            # every workload, end to end
//	go -C bench run . -workload all -seed 1 -trace 1   # every workload, per layer
//	go -C bench run . -repeat 10                       # spreads against the bounds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics of the run kind. The command exits non-zero when
// a correctness check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

var workloads = map[string]func(runConfig, *tracer) (*result, error){
	"serve-http":   serveHTTP,
	"scan-large":   scanLarge,
	"fed-large":    fedLarge,
	"churn-soak":   churnSoak,
	"optum-replay": optumReplay,
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracer off; 1: per-layer metrics from a traced run")
		repeat   = flag.Int("repeat", 0, "run the whole set this many times on consecutive seeds and report spreads against the bounds")
		scale    = flag.Float64("scale", 1, "shrink the large fleets and the replayed trace (tests use 0.02)")
		root     = flag.String("root", "", "root of the checkout (default: found from the working directory)")
		noop     = flag.Bool("noop-server", false, "internal: serve the HTTP floor probe's no-op handler until standard input closes")
		setup    = flag.Bool("setup-only", false, "internal: build the workload's set-up once, warm it up, print the sample and exit")
	)
	flag.Parse()
	if *noop {
		if err := serveNoop(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *traced != 0, *repeat, *scale, *root, *setup); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, repeat int, scale float64, root string, setupOnly bool) error {
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	m, err := loadManifest(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(m.RunSeconds)
	}
	if repeat > 0 {
		return repeatSet(m, root, seed, seconds, repeat, scale)
	}
	if workload == "all" {
		for _, name := range m.workloadNames() {
			if _, _, err := runChild(root, name, seed, seconds, traced, scale, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(m.workloadNames(), ", "))
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Scale: scale, Root: root, Work: work, SetupOnly: setupOnly}
	tr := newTracer()
	r, err := fn(cfg, tr)
	if err != nil {
		return err
	}
	if setupOnly {
		line, err := json.Marshal(r.Setup)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	out := m.output(r, traced)
	if traced {
		flat := make(map[string]float64, len(out.Metrics))
		for name, v := range out.Metrics {
			flat[name] = v.Value
		}
		path, err := tr.write(filepath.Join(root, "bench", "out"), workload, seed, workload != "optum-replay", flat)
		if err != nil {
			return fmt.Errorf("writing the trace: %w", err)
		}
		r.note("spans written to %s", path)
	}
	printReport(m, cfg, r, out, traced)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d correctness check(s) failed", workload, len(r.Problems))
	}
	return nil
}

// findRoot locates the checkout: the directory holding BENCHMARK.json,
// which is the working directory or, under `go -C bench run .`, its parent.
func findRoot(root string) (string, error) {
	candidates := []string{root}
	if root == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "BENCHMARK.json")); err == nil {
			abs, err := filepath.Abs(c)
			if err != nil {
				return "", err
			}
			if err := os.MkdirAll(filepath.Join(abs, ".bench_build"), 0o755); err != nil {
				return "", err
			}
			return abs, nil
		}
	}
	return "", fmt.Errorf("no BENCHMARK.json in %v: run from the root of the checkout or pass -root", candidates)
}

// printReport writes the human-readable part: the box, every metric of the
// run kind by name with its unit, the operation counts and any remarks.
func printReport(m *manifest, cfg runConfig, r *result, out outputLine, traced bool) {
	kind, specs := "end-to-end", m.EndToEnd
	if traced {
		kind, specs = "per-layer (traced)", m.PerLayer
	}
	fmt.Printf("# %s seed=%d seconds=%g scale=%g %s\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Scale, kind)
	fmt.Printf("# host: %s probes_built=%v\n", readHostInfo(), probesBuilt)
	if r.BuildSeconds > 0 {
		fmt.Printf("# build of unischedd: %.2f s (not part of setup_s)\n", r.BuildSeconds)
	}
	for _, s := range specs {
		mark := ""
		if _, measured := r.Metrics[s.Name]; !measured {
			mark = "   (layer not entered)"
		}
		fmt.Printf("%-44s %16.6g %-8s%s\n", s.Name, out.Metrics[s.Name].Value, s.Unit, mark)
	}
	fmt.Printf("# operations: attempted=%d failed=%d correct=%v\n", out.Attempted, out.Failed, out.Correct)
	for _, n := range r.Notes {
		fmt.Println("# note:", n)
	}
	for _, p := range r.Problems {
		fmt.Println("# FAILED CHECK:", p)
	}
}

// runChild runs one workload in a process of its own, so that peak memory
// and allocator state start clean as they do under the driver. It relays the
// child's report to relay and returns its result line.
func runChild(root, workload string, seed int64, seconds float64, traced bool, scale float64, relay *os.File) (out outputLine, invalid bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return out, false, err
	}
	cmd := exec.Command(self, "-root", root, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceFlag(traced), "-scale", fmt.Sprint(scale))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	if relay != nil {
		relay.Write(stdout.Bytes()) //nolint:errcheck // the report is advisory
	}
	if runErr != nil {
		return out, false, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.Contains(line, invalidRunMark) {
			invalid = true
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return out, invalid, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return out, invalid, nil
}

// exactRepeatMetrics are the per-layer counters that count work rather than
// time on the two single-threaded workloads; a second traced run of the same
// seed must reproduce them to the last digit.
var exactRepeatMetrics = []struct {
	workload string
	metrics  []string
}{
	{"scan-large", []string{"pipeline.nodes_visited_per_decision", "pipeline.nodes_pruned_per_decision", "pipeline.scored_per_decision"}},
	{"optum-replay", []string{
		"pipeline.nodes_visited_per_decision", "pipeline.nodes_pruned_per_decision", "pipeline.scored_per_decision",
		"core.sampled_per_decision", "predictor.summary_hit_ratio", "predictor.summary_rebuilds_per_kdecision",
		"sim.cpu_util_avg", "sim.violation_rate", "sim.ls_psi_p99", "sim.be_completion_p90_s",
	}},
}

// repeatSet is the evidence for the benchmark's steadiness: the whole set n
// times, each time on the next seed and in alternating workload order, then
// for every end-to-end metric of every workload the quartiles and their
// distance as a share of the median, held against the metric's bound. A run
// the generator-health guard marks invalid is run again, once.
func repeatSet(m *manifest, root string, seed int64, seconds float64, n int, scale float64) error {
	names := m.workloadNames()
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	for _, w := range names {
		values[w] = make(map[string][]float64)
	}
	for i := 0; i < n; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			out, invalid, err := runChild(root, w, seed+int64(i), seconds, false, scale, nil)
			if err == nil && invalid {
				fmt.Printf("run %d/%d %-13s seed %d  invalid (load generator unhealthy), running it again\n", i+1, n, w, seed+int64(i))
				out, _, err = runChild(root, w, seed+int64(i), seconds, false, scale, nil)
			}
			if err != nil {
				return err
			}
			for name, v := range out.Metrics {
				values[w][name] = append(values[w][name], v.Value)
			}
			fmt.Printf("run %d/%d %-13s seed %d  attempted=%d failed=%d\n", i+1, n, w, seed+int64(i), out.Attempted, out.Failed)
		}
	}
	fmt.Printf("\n%-13s %-22s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "bound")
	var over []string
	for _, w := range names {
		for _, s := range m.EndToEnd {
			xs := values[w][s.Name]
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			flag := ""
			if s.Name != "setup_s" && sp > s.Bound {
				flag = "  OVER"
				over = append(over, fmt.Sprintf("%s/%s %.3f > %.2f", w, s.Name, sp, s.Bound))
			}
			fmt.Printf("%-13s %-22s %12.6g %12.6g %12.6g %8.3f %6.2f%s\n", w, s.Name, q1, q2, q3, sp, s.Bound, flag)
		}
	}
	// The exact-repeat counters, across two processes.
	for _, er := range exactRepeatMetrics {
		w := er.workload
		a, _, err := runChild(root, w, seed, seconds, true, scale, nil)
		if err != nil {
			return err
		}
		b, _, err := runChild(root, w, seed, seconds, true, scale, nil)
		if err != nil {
			return err
		}
		same := true
		for _, name := range er.metrics {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				same = false
				over = append(over, fmt.Sprintf("%s/%s does not repeat: %v then %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value))
			}
		}
		fmt.Printf("%-13s exact-repeat counters identical across two traced runs of seed %d: %v\n", w, seed, same)
	}
	if len(over) > 0 {
		return fmt.Errorf("not steady: %s", strings.Join(over, "; "))
	}
	return nil
}
