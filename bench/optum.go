package main

import (
	"fmt"
	"math"
	"time"

	"unisched"
)

// replaySetup is everything optum-replay builds before its timed window:
// the trace and the profiles Optum schedules with.
type replaySetup struct {
	w        *unisched.Workload
	profiles unisched.Profiles
	// profileSec and trainSec split the set-up between the offline
	// profiling pass (a whole replay under the production baseline) and
	// model training.
	profileSec, trainSec float64
}

func buildReplay(cfg runConfig, profileHook func(time.Time, time.Duration, []*unisched.Pod)) (*replaySetup, error) {
	// A fifth of the paper-shaped evaluation's fleet over three virtual
	// hours: one replay takes about a second and a half here, so a window
	// holds several and their counters can be held against each other.
	nodes, horizon, maxPods := 200, int64(3*3600), replayPods
	if cfg.Scale < 1 {
		nodes, horizon, maxPods = max(24, int(200*cfg.Scale)), 3600, 0
	}
	w, err := replayTrace(cfg.Seed, nodes, horizon, maxPods)
	if err != nil {
		return nil, err
	}
	s := &replaySetup{w: w}
	t0 := time.Now()
	col := unisched.NewCollector(cfg.Seed)
	warm := unisched.NewCluster(w)
	baseline := unisched.NewAlibabaScheduler(warm, cfg.Seed)
	if profileHook != nil {
		baseline = timedScheduler(baseline, profileHook)
	}
	unisched.Simulate(w, warm, baseline, unisched.SimConfig{Collector: col})
	s.profileSec = time.Since(t0).Seconds()
	t0 = time.Now()
	if s.profiles, err = unisched.TrainProfiles(col); err != nil {
		return nil, fmt.Errorf("optum-replay: training: %w", err)
	}
	s.trainSec = time.Since(t0).Seconds()
	return s, nil
}

// replayOutcome is what one Simulate call leaves for the exact-repeat check:
// every field is a pure function of the seed.
type replayOutcome struct {
	placed, pending                                      int
	exact                                                exactRepeat
	cpuUtilAvg, violationRate, lsPSIP99, beCompletionP90 float64
}

func optumReplay(cfg runConfig, tr *tracer) (*result, error) {
	r := newResult()

	// The profiling pass runs the sched layer's baseline under the same
	// decorator the traced replays put around Optum.
	var profile scheduleTotals
	var profileHook func(time.Time, time.Duration, []*unisched.Pod)
	if cfg.Traced {
		profileHook = func(_ time.Time, d time.Duration, pods []*unisched.Pod) {
			profile.calls.Add(1)
			profile.pods.Add(int64(len(pods)))
			profile.ns.Add(d.Nanoseconds())
		}
	}
	var samples []setupSample
	if !cfg.SetupOnly {
		var err error
		if samples, err = coldSetups(cfg); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	setup, err := buildReplay(cfg, profileHook)
	if err != nil {
		return nil, err
	}
	r.Setup.Seconds = time.Since(t0).Seconds()
	if cfg.SetupOnly {
		return r, nil
	}
	setSetup(r, append(samples, r.Setup), false)
	w := setup.w
	hours := float64(w.Horizon) / 3600

	var (
		outcomes              []replayOutcome
		decisionMs            []float64 // one entry per pod decision, all replays
		tracedSecs, schedSecs []float64
		rates                 []float64 // pods placed per second, one entry per replay
		tracedRate, plainRate []float64
		cpuUs                 []float64
		schedLatencySum       float64
		schedLatencyN         int
		last                  *unisched.SimResult
		lastCluster           *unisched.Cluster
		tracedPods, tracedNs  int64
		tracedPipeline        counters
	)
	costs0 := readProcessCosts(cfg.Traced)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	// The window is a fixed number of replays, some 15% fewer than the seed
	// commit fits into the time on a quiet box, with the clock as the
	// backstop; and at least two, whatever the time limit: the second is
	// what the first is held against. A traced run decorates the scheduler
	// of every other replay.
	replays := max(2, int(0.55*cfg.Seconds))
	for rep := 0; rep < 2 || (rep < replays && time.Now().Before(deadline)); rep++ {
		traced := cfg.Traced && rep%2 == 1
		tr.enabled.Store(traced)
		c := unisched.NewCluster(w)
		var s unisched.Scheduler = unisched.NewOptum(c, setup.profiles, unisched.DefaultOptumOptions(), cfg.Seed)
		var repNs, repPods int64
		if traced {
			s = timedScheduler(s, func(t0 time.Time, d time.Duration, pods []*unisched.Pod) {
				if len(pods) == 0 {
					return
				}
				repNs += d.Nanoseconds()
				repPods += int64(len(pods))
				tr.endAt(spSchedule, t0, t0.Add(d), int64(pods[0].ID))
			})
		}
		round := tr.beginRound()
		cpu0, t0 := selfCPU(), time.Now()
		res := unisched.Simulate(w, c, s, unisched.SimConfig{})
		t1 := time.Now()
		if !round.IsZero() {
			tr.endAt(spSimulate, t0, t1, -1)
			tr.endRound(round)
		}
		sec := t1.Sub(t0).Seconds()
		cpuUs = append(cpuUs, perPlaced(float64((selfCPU()-cpu0).Microseconds()), int64(res.Placed)))
		for _, l := range res.SchedLatency {
			schedLatencySum += l
			decisionMs = append(decisionMs, l*1000)
		}
		schedLatencyN += len(res.SchedLatency)
		o := outcomeOf(res)
		outcomes = append(outcomes, o)
		rates = append(rates, float64(o.placed)/sec)
		last, lastCluster = res, c
		if traced {
			tracedSecs, schedSecs = append(tracedSecs, sec), append(schedSecs, float64(repNs)/1e9)
			tracedRate = append(tracedRate, float64(o.placed)/sec)
			tracedPods, tracedNs = tracedPods+repPods, tracedNs+repNs
			if res.Pipeline != nil {
				tracedPipeline = tracedPipeline.plus(countersOf(unisched.EngineSnapshot{Pipeline: res.Pipeline}))
			}
		} else {
			plainRate = append(plainRate, float64(o.placed)/sec)
		}
	}
	tr.enabled.Store(false)
	costs1 := readProcessCosts(cfg.Traced)

	var placed, pending int64
	for i, o := range outcomes {
		placed += int64(o.placed)
		pending += int64(o.pending)
		if o != outcomes[0] {
			r.problem("replay %d of the same seed differs from the first: %+v vs %+v", i, o, outcomes[0])
		}
	}
	r.Attempted = int64(len(w.Pods) * len(outcomes))
	r.Failed = pending
	setRoundFigures(r, rates, cpuUs, decisionMs)
	verifyReplay(r, w, last, lastCluster)
	setPeakRSS(r, 0)
	if !cfg.Traced {
		return r, nil
	}

	o := outcomes[0]
	r.set("sim.sched_us_per_pod", ratio(schedLatencySum*1e6, float64(schedLatencyN)))
	r.set("sim.cpu_util_avg", o.cpuUtilAvg)
	r.set("sim.violation_rate", o.violationRate)
	r.set("sim.ls_psi_p99", o.lsPSIP99)
	r.set("sim.be_completion_p90_s", o.beCompletionP90)
	r.set("sim.non_sched_s", mean(tracedSecs)-mean(schedSecs))
	r.set("sim.virtual_hours_per_s", hours/mean(tracedSecs))
	r.set("core.schedule_us_per_pod", ratio(float64(tracedNs)/1e3, float64(tracedPods)))
	r.set("core.sampled_per_decision", ratio(float64(tracedPipeline.Sampled), float64(tracedPipeline.Decisions)))
	lookups := float64(tracedPipeline.SummaryHits + tracedPipeline.SummaryRebuilds)
	r.set("predictor.summary_hit_ratio", ratio(float64(tracedPipeline.SummaryHits), lookups))
	r.set("predictor.summary_rebuilds_per_kdecision", ratio(1000*float64(tracedPipeline.SummaryRebuilds), float64(tracedPipeline.Decisions)))
	r.set("profiler.profile_pass_s", setup.profileSec)
	r.set("profiler.train_s", setup.trainSec)
	if pods := profile.pods.Load(); pods > 0 {
		r.set("sched.schedule_ns_per_pod", float64(profile.ns.Load())/float64(pods))
		r.set("sched.batch_pods_mean", float64(pods)/float64(profile.calls.Load()))
	}
	setPipelineLayers(r, tracedPipeline)
	setProcessLayers(r, costs0, costs1, placed)
	r.set("bench.trace_overhead_frac", median(tracedRate)/median(plainRate)-1)

	in, err := newLayerInputs(cfg, w, w.Pods)
	if err != nil {
		return nil, err
	}
	runLayerProbes(r, tr, in, lastCluster)
	setHTTPFloor(r, tr, in)
	return r, nil
}

func outcomeOf(res *unisched.SimResult) replayOutcome {
	o := replayOutcome{placed: res.Placed, pending: res.Pending}
	if res.Pipeline != nil {
		o.exact = countersOf(unisched.EngineSnapshot{Pipeline: res.Pipeline}).exact()
	}
	o.cpuUtilAvg = mean(res.CPUUtilAvg)
	o.violationRate = mean(res.Violation)
	psi := make([]float64, 0, len(res.MaxPSI))
	for _, v := range res.MaxPSI {
		psi = append(psi, v)
	}
	o.lsPSIP99 = percentile(psi, 0.99)
	ct := make([]float64, 0, len(res.BECT))
	for _, v := range res.BECT {
		ct = append(ct, v)
	}
	o.beCompletionP90 = percentile(ct, 0.90)
	return o
}

// verifyReplay recomputes every node's request sums from the pods the
// cluster says run on it, checks them against the node's own accounting,
// against the placement map the simulator reports, and against the node's
// hard memory capacity as actually used.
func verifyReplay(r *result, w *unisched.Workload, res *unisched.SimResult, c *unisched.Cluster) {
	running := 0
	for _, n := range c.Nodes() {
		var cpu, mem float64
		for _, ps := range n.Pods() {
			cpu += ps.Pod.Request.CPU
			mem += ps.Pod.Request.Mem
			if node, ok := res.NodeOf[ps.Pod.ID]; !ok || node != n.Node.ID {
				r.problem("pod %d runs on node %d but the result maps it to %d (known: %v)", ps.Pod.ID, n.Node.ID, node, ok)
			}
			running++
		}
		req := n.ReqSum()
		if math.Abs(req.CPU-cpu) > accountingTolerance || math.Abs(req.Mem-mem) > accountingTolerance {
			r.problem("node %d accounting: cluster says cpu=%g mem=%g, its pods sum to cpu=%g mem=%g", n.Node.ID, req.CPU, req.Mem, cpu, mem)
		}
		if used := n.LastUsage().Mem; used > n.Capacity().Mem+accountingTolerance {
			r.problem("node %d uses %g memory of a capacity of %g", n.Node.ID, used, n.Capacity().Mem)
		}
	}
	if res.Placed+res.Pending < len(w.Pods) {
		r.problem("replay accounts for %d placed + %d pending of %d pods", res.Placed, res.Pending, len(w.Pods))
	}
	if running > res.Placed {
		r.problem("%d pods run at the horizon but only %d were ever placed", running, res.Placed)
	}
}
