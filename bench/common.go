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
	"time"

	"unisched"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     int64
	// Seconds is how long the timed window measures.
	Seconds float64
	Traced  bool
	// Scale shrinks the large fleets and the replayed trace (1 = the sizes
	// BENCHMARK.json's figures are for). The tests run at 1/50.
	Scale float64
	// Root is the checkout; Work is a scratch directory inside it.
	Root string
	Work string
	// SetupOnly makes the workload stop after its first set-up and warm-up
	// and report them as a setupSample: the child side of coldSetups.
	SetupOnly bool
}

// setup_s is the median over several set-ups, which keeps one page-fault
// storm or slow fsync from deciding it. A workload that runs the system in
// the bench's own process takes every sample but its own from a fresh child
// process (see coldSetups): a second build in the same process pays for
// sweeping and re-faulting the first one's heap and reads anywhere from the
// same to ten times slower, while a user's set-up always starts cold. At
// least setupReps samples are taken, and for a cheap set-up more, until
// setupBudget is spent or setupRepsMax is reached.
const (
	setupReps    = 5
	setupRepsMax = 25
	setupBudget  = 300 * time.Millisecond
)

// moreSetups reports whether a workload that has taken done set-up samples,
// spending spent on them, should take one more.
func moreSetups(done int, spent time.Duration) bool {
	return done < setupReps || (done < setupRepsMax && spent < setupBudget)
}

// setupSample is what one set-up leaves behind: how long it took and, after
// the warm-up that follows it, the counters that count work rather than
// time. It is also the one line a -setup-only child prints.
type setupSample struct {
	Seconds float64     `json:"setup_s"`
	Exact   exactRepeat `json:"exact"`
}

// coldSetups takes set-up samples in child processes of this binary, each
// building the workload's set-up once, warming it up and exiting.
func coldSetups(cfg runConfig) ([]setupSample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var samples []setupSample
	var spent time.Duration
	// The caller's own set-up is one more sample.
	for moreSetups(len(samples)+1, spent) {
		t0 := time.Now()
		cmd := exec.Command(self, "-root", cfg.Root, "-workload", cfg.Workload, "-seed", fmt.Sprint(cfg.Seed),
			"-scale", fmt.Sprint(cfg.Scale), "-trace", traceFlag(cfg.Traced), "-setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up in a child process: %w", cfg.Workload, err)
		}
		var s setupSample
		if err := json.Unmarshal(bytes.TrimSpace(out), &s); err != nil {
			return nil, fmt.Errorf("%s: set-up child printed %q: %w", cfg.Workload, out, err)
		}
		samples = append(samples, s)
		spent += time.Since(t0)
	}
	return samples, nil
}

// traceFlag is the -trace argument for a child process.
func traceFlag(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

// setSetup records the median set-up time and, where the counters are a
// pure function of the seed, requires every sample to have counted the same.
func setSetup(r *result, samples []setupSample, exact bool) {
	secs := make([]float64, len(samples))
	for i, s := range samples {
		secs[i] = s.Seconds
		if exact && s.Exact != samples[0].Exact {
			r.problem("exact-repeat counters differ between set-ups of the same seed: %+v vs %+v", samples[0].Exact, s.Exact)
		}
	}
	r.set("setup_s", median(secs))
}

// layerInputs is what a workload hands the layer probes; see probe.Inputs.
type layerInputs struct {
	Workload *unisched.Workload
	Pods     []*unisched.Pod
	Bodies   [][]byte
	Quota    unisched.QuotaConfig
	Dir      string
}

// probeSample bounds how many of a workload's pods the probes replay.
const probeSample = 2048

func newLayerInputs(cfg runConfig, w *unisched.Workload, pods []*unisched.Pod) (layerInputs, error) {
	if len(pods) > probeSample {
		pods = pods[:probeSample]
	}
	in := layerInputs{Workload: w, Pods: pods, Quota: benchQuota(len(w.Nodes)), Dir: filepath.Join(cfg.Work, "probe-journal")}
	for _, p := range pods {
		body, err := json.Marshal(p)
		if err != nil {
			return in, err
		}
		in.Bodies = append(in.Bodies, body)
	}
	if err := os.MkdirAll(in.Dir, 0o755); err != nil {
		return in, err
	}
	return in, nil
}

// benchTenants are the tenants of the quota tree serve-http runs the daemon
// with and the quota probe replays against.
var benchTenants = []string{"tenant-a", "tenant-b", "tenant-c"}

// benchQuota gives each tenant a guaranteed sixth of the fleet and lets it
// grow to the whole of it: with pods living four ticks no tenant comes near
// its max, so the gate does its bookkeeping and sheds nothing.
func benchQuota(nodes int) unisched.QuotaConfig {
	var cfg unisched.QuotaConfig
	fleet := float64(nodes)
	for _, name := range benchTenants {
		cfg.Tenants = append(cfg.Tenants, unisched.TenantConfig{
			Name:       name,
			Guaranteed: unisched.Resources{CPU: fleet / 6, Mem: fleet / 6},
			Max:        unisched.Resources{CPU: fleet, Mem: fleet},
		})
	}
	return cfg
}

// counters is the part of an engine snapshot the bench attributes time
// with, summed over partitions for a federation. All fields are cumulative
// since the engine was built; minus gives a window's share.
type counters struct {
	Submitted, Accepted, Placed, Shed, Exhausted int64
	Retries, Conflicts, BatchCommits, Steals     int64
	Epochs                                       int64
	SchedSec, CommitSec                          float64
	DecisionP50Ms, DecisionP99Ms                 float64
	Decisions, Visited, Pruned, Scored, Sampled  int64
	NarrowMicros, ScanMicros                     float64
	SummaryHits, SummaryRebuilds                 int64
	Lost                                         int64
	QuotaShed                                    int64
}

func countersOf(sn unisched.EngineSnapshot) counters {
	c := counters{
		Submitted: sn.Submitted, Accepted: sn.Accepted, Placed: sn.Placed, Shed: sn.Shed, Exhausted: sn.Exhausted,
		Retries: sn.Retries, Conflicts: sn.CommitConflicts, BatchCommits: sn.BatchCommits, Steals: sn.Steals,
		Epochs: sn.EpochsPublished, SchedSec: sn.SchedSeconds, CommitSec: sn.CommitSeconds,
		DecisionP50Ms: sn.DecisionP50Ms, DecisionP99Ms: sn.DecisionP99Ms,
		Lost: sn.Lost(), QuotaShed: sn.QuotaShed,
	}
	if p := sn.Pipeline; p != nil {
		c.Decisions, c.Visited, c.Pruned, c.Scored, c.Sampled = p.Decisions, p.VisitedNodes, p.PrunedNodes, p.ScoredNodes, p.SampledNodes
		c.SummaryHits, c.SummaryRebuilds = p.SummaryHits, p.SummaryRebuilds
		// The pipeline clocks Filter and Score as one fused scan per
		// node, so the split the bench can report is between narrowing
		// the candidates (prefilter, candidate lookup, sampling) and
		// scanning them (filter+score, and preemption when the scan
		// finds nothing).
		c.NarrowMicros = p.StageMicros["prefilter"] + p.StageMicros["candidates"] + p.StageMicros["sample"]
		c.ScanMicros = p.StageMicros["scan"] + p.StageMicros["preempt"]
	}
	return c
}

func (c counters) plus(o counters) counters {
	c.Submitted += o.Submitted
	c.Accepted += o.Accepted
	c.Placed += o.Placed
	c.Shed += o.Shed
	c.Exhausted += o.Exhausted
	c.Retries += o.Retries
	c.Conflicts += o.Conflicts
	c.BatchCommits += o.BatchCommits
	c.Steals += o.Steals
	c.Epochs += o.Epochs
	c.SchedSec += o.SchedSec
	c.CommitSec += o.CommitSec
	c.DecisionP50Ms = math.Max(c.DecisionP50Ms, o.DecisionP50Ms)
	c.DecisionP99Ms = math.Max(c.DecisionP99Ms, o.DecisionP99Ms)
	c.Decisions += o.Decisions
	c.Visited += o.Visited
	c.Pruned += o.Pruned
	c.Scored += o.Scored
	c.Sampled += o.Sampled
	c.NarrowMicros += o.NarrowMicros
	c.ScanMicros += o.ScanMicros
	c.SummaryHits += o.SummaryHits
	c.SummaryRebuilds += o.SummaryRebuilds
	c.Lost += o.Lost
	c.QuotaShed += o.QuotaShed
	return c
}

// minus returns the counters accumulated since base. The decision
// quantiles are not additive and keep their cumulative reading.
func (c counters) minus(base counters) counters {
	c.Submitted -= base.Submitted
	c.Accepted -= base.Accepted
	c.Placed -= base.Placed
	c.Shed -= base.Shed
	c.Exhausted -= base.Exhausted
	c.Retries -= base.Retries
	c.Conflicts -= base.Conflicts
	c.BatchCommits -= base.BatchCommits
	c.Steals -= base.Steals
	c.Epochs -= base.Epochs
	c.SchedSec -= base.SchedSec
	c.CommitSec -= base.CommitSec
	c.Decisions -= base.Decisions
	c.Visited -= base.Visited
	c.Pruned -= base.Pruned
	c.Scored -= base.Scored
	c.Sampled -= base.Sampled
	c.NarrowMicros -= base.NarrowMicros
	c.ScanMicros -= base.ScanMicros
	c.SummaryHits -= base.SummaryHits
	c.SummaryRebuilds -= base.SummaryRebuilds
	c.Lost -= base.Lost
	c.QuotaShed -= base.QuotaShed
	return c
}

// exactRepeat is the tuple of pipeline counters that must read the same on
// every run of the same seed: they count work, not time.
type exactRepeat struct {
	Decisions, Visited, Pruned, Scored, Sampled, SummaryHits, SummaryRebuilds int64
}

func (c counters) exact() exactRepeat {
	return exactRepeat{c.Decisions, c.Visited, c.Pruned, c.Scored, c.Sampled, c.SummaryHits, c.SummaryRebuilds}
}

func perPlaced(total float64, placed int64) float64 {
	if placed <= 0 {
		return 0
	}
	return total / float64(placed)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setEngineLayers fills the engine.* and pipeline.* rows from a window's
// counter delta. workers is the number of scheduling workers the window
// could have kept busy and window its wall length.
func setEngineLayers(r *result, d counters, workers int, window time.Duration) {
	r.set("engine.sched_ns_per_placement", perPlaced(d.SchedSec*1e9, d.Placed))
	r.set("engine.commit_ns_per_placement", perPlaced(d.CommitSec*1e9, d.Placed))
	idle := float64(workers)*window.Seconds() - d.SchedSec - d.CommitSec
	r.set("engine.idle_ns_per_placement", perPlaced(math.Max(idle, 0)*1e9, d.Placed))
	r.set("engine.batch_size_mean", ratio(float64(d.Placed), float64(d.BatchCommits)))
	r.set("engine.commit_conflicts_per_placement", perPlaced(float64(d.Conflicts), d.Placed))
	r.set("engine.retries_per_placement", perPlaced(float64(d.Retries), d.Placed))
	r.set("engine.steals_per_kpod", perPlaced(1000*float64(d.Steals), d.Placed))
	r.set("engine.epochs_per_placement", perPlaced(float64(d.Epochs), d.Placed))
	r.set("engine.decision_p50_ms", d.DecisionP50Ms)
	r.set("engine.decision_p99_ms", d.DecisionP99Ms)
	setPipelineLayers(r, d)
}

func setPipelineLayers(r *result, d counters) {
	dec := float64(d.Decisions)
	r.set("pipeline.nodes_visited_per_decision", ratio(float64(d.Visited), dec))
	r.set("pipeline.nodes_pruned_per_decision", ratio(float64(d.Pruned), dec))
	r.set("pipeline.scored_per_decision", ratio(float64(d.Scored), dec))
	r.set("pipeline.filter_us_per_decision", ratio(d.NarrowMicros, dec))
	r.set("pipeline.score_us_per_decision", ratio(d.ScanMicros, dec))
}

// processCosts measures this process's CPU, allocation and GC-pause totals,
// for the workloads that run the system in the bench's own process.
type processCosts struct {
	cpu           time.Duration
	mallocs       uint64
	bytes         uint64
	gcPauseNs     uint64
	withAllocInfo bool
}

// readProcessCosts reads the CPU time always and the allocator's counters
// only when asked: ReadMemStats stops the world, which an untraced window
// should not pay for figures it does not report.
func readProcessCosts(withAllocInfo bool) processCosts {
	pc := processCosts{cpu: selfCPU(), withAllocInfo: withAllocInfo}
	if withAllocInfo {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		pc.mallocs, pc.bytes, pc.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	}
	return pc
}

func setProcessLayers(r *result, before, after processCosts, placed int64) {
	r.set("engine.cpu_us_per_placement", perPlaced(float64((after.cpu-before.cpu).Microseconds()), placed))
	if before.withAllocInfo && after.withAllocInfo {
		r.set("engine.allocs_per_placement", perPlaced(float64(after.mallocs-before.mallocs), placed))
		r.set("engine.bytes_per_placement", perPlaced(float64(after.bytes-before.bytes), placed))
		r.set("engine.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
	}
}

// setPeakRSS records the peak resident set of the process under test; pid 0
// is this process.
func setPeakRSS(r *result, pid int) {
	rss, err := peakRSSMB(pid)
	if err != nil {
		r.problem("peak RSS: %v", err)
		return
	}
	r.set("peak_rss_mb", rss)
}

// accountingTolerance absorbs the difference between the system adding a
// node's requests in placement order and the bench adding them in pod-ID
// order; anything larger is a pod on the wrong node or counted twice.
const accountingTolerance = 1e-9

// nodeSums accumulates per-node request sums recomputed from pod
// placements, to be held against what the system reports for each node.
type nodeSums struct {
	cpu, mem []float64
	pods     []int
}

func newNodeSums(nodes int) *nodeSums {
	return &nodeSums{cpu: make([]float64, nodes), mem: make([]float64, nodes), pods: make([]int, nodes)}
}

func (s *nodeSums) add(node int, req unisched.Resources) error {
	if node < 0 || node >= len(s.pods) {
		return fmt.Errorf("pod placed on node %d of a %d-node fleet", node, len(s.pods))
	}
	s.cpu[node] += req.CPU
	s.mem[node] += req.Mem
	s.pods[node]++
	return nil
}

// sumPlacements recomputes the per-node request sums of a fleet from the
// status the system reports for each of pods; only placed pods count.
func sumPlacements(r *result, nodes int, pods []*unisched.Pod, status func(id int) (unisched.EnginePodStatus, bool)) *nodeSums {
	sums := newNodeSums(nodes)
	for _, p := range pods {
		st, ok := status(p.ID)
		if !ok {
			r.problem("the system does not know pod %d", p.ID)
			continue
		}
		if st.Phase != "placed" {
			continue
		}
		if err := sums.add(st.Node, p.Request); err != nil {
			r.problem("pod %d: %v", p.ID, err)
		}
	}
	return sums
}

// check holds the recomputed sums against one node's reported accounting
// and its hard memory capacity.
func (s *nodeSums) check(r *result, st unisched.EngineNodeStatus) {
	id := st.ID
	if id < 0 || id >= len(s.pods) {
		r.problem("system reports node %d outside the fleet", id)
		return
	}
	if st.Pods != s.pods[id] || math.Abs(st.ReqCPU-s.cpu[id]) > accountingTolerance || math.Abs(st.ReqMem-s.mem[id]) > accountingTolerance {
		r.problem("node %d accounting: system says %d pods cpu=%g mem=%g, placements sum to %d pods cpu=%g mem=%g",
			id, st.Pods, st.ReqCPU, st.ReqMem, s.pods[id], s.cpu[id], s.mem[id])
	}
	if st.ReqMem > st.CapMem+accountingTolerance {
		r.problem("node %d requests %g memory of a capacity of %g", id, st.ReqMem, st.CapMem)
	}
}
