package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"unisched"
)

// burstTarget is a started engine or federation together with what the
// burst runner needs around it.
type burstTarget struct {
	submit func(*unisched.Pod) error
	drain  func(time.Duration) bool
	stop   func()
	// now is the target's virtual clock, for pods with a lifetime.
	now      func() int64
	snapshot func() counters
	// verify runs after stop: conservation and the recomputation of every
	// node's accounting from the pods' own placements.
	verify func(r *result, pods []*unisched.Pod)
	// setFedLayers fills the federation.* rows from the final snapshot; nil
	// for a single engine.
	setFedLayers func(r *result)
	// cluster is the state the workload leaves behind, for the tick probe;
	// nil when it is out of the bench's reach.
	cluster  *unisched.Cluster
	workload *unisched.Workload
	stream   *podStream
}

// burstSpec describes one of the three workloads that drive an in-process
// engine through the facade in bursts: submit a burst, Drain, repeat.
type burstSpec struct {
	workload   string
	burst      int
	warmBursts int
	// podBudget caps the pods the timed window submits, so that the fleet
	// stays as empty as the workload's definition needs however fast the
	// box is. The window ends at the time limit or the budget, whichever
	// comes first.
	podBudget int
	// rateCap, in pods per second of window, makes the window a fixed
	// amount of work: it submits at most rateCap × seconds pods. The cap
	// sits some 15% under what the seed commit reaches on a quiet box, so
	// the budget ends the window and the clock is only the backstop for a
	// slower box or commit. Peak memory, which grows with every pod an
	// engine has ever seen, is then compared at equal work, before and
	// after a speed-up alike.
	rateCap float64
	workers int
	// lifetimeTicks is how many virtual ticks after its burst starts a pod
	// expires; 0 keeps pods for ever.
	lifetimeTicks int64
	// submitKind and submitMetric name the span around one Submit call and
	// the per-layer row its mean lands in.
	submitKind   spanKind
	submitMetric string
	// exactRepeat says the warm-up's pipeline counters are a pure function
	// of the seed and must agree across the set-ups of one run.
	exactRepeat bool
	build       func(wrap func(unisched.SchedulerFactory) unisched.SchedulerFactory) (*burstTarget, error)
}

// scheduleTotals accumulates what the scheduler decorator saw.
type scheduleTotals struct{ calls, pods, ns atomic.Int64 }

type roundRecord struct {
	seconds float64
	cpu     time.Duration // process CPU time the burst used
	pods    int
	traced  bool
}

func alibabaFactory(c *unisched.Cluster, _ int, seed int64) unisched.Scheduler {
	return unisched.NewAlibabaScheduler(c, seed)
}

func runBursts(cfg runConfig, tr *tracer, spec burstSpec) (*result, error) {
	r := newResult()
	var sched scheduleTotals
	wrap := func(f unisched.SchedulerFactory) unisched.SchedulerFactory { return f }
	if cfg.Traced {
		wrap = func(f unisched.SchedulerFactory) unisched.SchedulerFactory {
			return func(c *unisched.Cluster, worker int, seed int64) unisched.Scheduler {
				return timedScheduler(f(c, worker, seed), func(start time.Time, d time.Duration, pods []*unisched.Pod) {
					if !tr.on() || len(pods) == 0 {
						return
					}
					sched.calls.Add(1)
					sched.pods.Add(int64(len(pods)))
					sched.ns.Add(d.Nanoseconds())
					tr.endAt(spSchedule, start, start.Add(d), int64(pods[0].ID))
				})
			}
		}
	}

	var (
		tgt    *burstTarget
		all    []*unisched.Pod
		failed int64
	)
	burst := func(n int) (roundRecord, error) {
		var lifetime int64
		if spec.lifetimeTicks > 0 {
			lifetime = tgt.now() + spec.lifetimeTicks*tickSeconds
		}
		pods, err := tgt.stream.take(n, lifetime)
		if err != nil {
			return roundRecord{}, err
		}
		all = append(all, pods...)
		round := tr.beginRound()
		cpu0, t0 := selfCPU(), time.Now()
		for _, p := range pods {
			s := tr.begin()
			err := tgt.submit(p)
			tr.end(spec.submitKind, s, int64(p.ID))
			if err != nil {
				failed++
			}
		}
		t1 := time.Now()
		if !tgt.drain(2 * time.Minute) {
			return roundRecord{}, fmt.Errorf("%s: burst of %d pods did not drain", spec.workload, n)
		}
		t2 := time.Now()
		if !round.IsZero() {
			tr.endAt(spDrain, t1, t2, -1)
			tr.endRound(round)
		}
		return roundRecord{seconds: t2.Sub(t0).Seconds(), cpu: selfCPU() - cpu0, pods: n, traced: !round.IsZero()}, nil
	}

	// Set-up: the samples of the child processes, then this process's own.
	var samples []setupSample
	if !cfg.SetupOnly {
		var err error
		if samples, err = coldSetups(cfg); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	var err error
	if tgt, err = spec.build(wrap); err != nil {
		return nil, err
	}
	defer func() {
		if tgt != nil {
			tgt.stop()
		}
	}()
	r.Setup.Seconds = time.Since(t0).Seconds()
	for b := 0; b < spec.warmBursts; b++ {
		if _, err := burst(spec.burst); err != nil {
			return nil, err
		}
	}
	r.Setup.Exact = tgt.snapshot().exact()
	if cfg.SetupOnly {
		return r, nil
	}
	setSetup(r, append(samples, r.Setup), spec.exactRepeat)

	// The timed window. A traced run turns the tracer on for every other
	// burst, so that traced and untraced bursts see the same engine at the
	// same age and their rates can be held against each other.
	var rounds []roundRecord
	base := tgt.snapshot()
	costs0 := readProcessCosts(cfg.Traced)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	submitted := 0
	budget := min(spec.podBudget, int(spec.rateCap*cfg.Seconds))
	// However short the window, it holds a burst, and a traced one too.
	minRounds := 1
	if cfg.Traced {
		minRounds = 2
	}
	for len(rounds) < minRounds || (time.Now().Before(deadline) && submitted+spec.burst <= budget) {
		tr.enabled.Store(cfg.Traced && len(rounds)%2 == 1)
		rec, err := burst(spec.burst)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rec)
		submitted += spec.burst
	}
	end := time.Now()
	tr.enabled.Store(false)
	costs1 := readProcessCosts(cfg.Traced)
	// Stop before the final snapshot: Drain returns when the pending count
	// reaches zero, which a worker publishes before it flushes its batch's
	// placed counter, so a snapshot taken right after Drain can lag one
	// batch behind. Stop waits for the workers.
	tgt.stop()
	stopped := tgt
	tgt = nil
	final := stopped.snapshot()

	window := final.minus(base)
	var roundMs, cpuUs, rates, tracedRate, untracedRate []float64
	for _, rec := range rounds {
		cpuUs = append(cpuUs, float64(rec.cpu.Microseconds())/float64(rec.pods))
		roundMs = append(roundMs, rec.seconds*1000)
		rate := float64(rec.pods) / rec.seconds
		rates = append(rates, rate)
		if rec.traced {
			tracedRate = append(tracedRate, rate)
		} else {
			untracedRate = append(untracedRate, rate)
		}
	}
	setRoundFigures(r, rates, cpuUs, roundMs)

	// Conservation over the whole life of the target, warm-up included.
	attempted := int64(len(all))
	r.Attempted = attempted
	if final.Lost != 0 {
		r.problem("snapshot reports %d lost submissions", final.Lost)
	}
	if final.Accepted != attempted-failed {
		r.problem("accepted %d of %d submissions that returned no error", final.Accepted, attempted-failed)
	}
	unplaced := attempted - failed - final.Placed
	if unplaced < 0 {
		unplaced = 0 // a pod displaced and placed again counts twice
	}
	r.Failed = failed + unplaced
	stopped.verify(r, all)
	setPeakRSS(r, 0)
	if !cfg.Traced {
		return r, nil
	}
	setEngineLayers(r, window, spec.workers, end.Sub(start))
	setProcessLayers(r, costs0, costs1, window.Placed)
	r.set(spec.submitMetric, tr.perCall(spec.submitKind))
	r.set("engine.drain_tail_ms", tr.perCall(spDrain)/1e6)
	if pods := sched.pods.Load(); pods > 0 {
		r.set("sched.schedule_ns_per_pod", float64(sched.ns.Load())/float64(pods))
		r.set("sched.batch_pods_mean", float64(pods)/float64(sched.calls.Load()))
		// Only the traced half of the bursts was timed; the visit counters
		// cover the whole window.
		r.set("sched.ns_per_node_visited", ratio(float64(sched.ns.Load()), float64(window.Visited)*float64(len(tracedRate))/float64(len(rounds))))
	} else {
		r.note("no Schedule call was timed: the scheduler decorator is missing")
	}
	if stopped.setFedLayers != nil {
		stopped.setFedLayers(r)
	}
	r.set("bench.trace_overhead_frac", median(tracedRate)/median(untracedRate)-1)

	in, err := newLayerInputs(cfg, stopped.workload, all)
	if err != nil {
		return nil, err
	}
	runLayerProbes(r, tr, in, stopped.cluster)
	setHTTPFloor(r, tr, in)
	return r, nil
}

// engineTarget starts a single engine over a fresh cluster of w's fleet.
func engineTarget(w *unisched.Workload, seed int64, factory unisched.SchedulerFactory, ecfg unisched.EngineConfig) *burstTarget {
	c := unisched.NewCluster(w)
	e := unisched.NewEngine(c, factory, ecfg)
	e.Start()
	return &burstTarget{
		submit: e.Submit, drain: e.Drain, stop: e.Stop, now: e.Now,
		snapshot: func() counters { return countersOf(e.Snapshot()) },
		verify: func(r *result, pods []*unisched.Pod) {
			sums := sumPlacements(r, len(w.Nodes), pods, e.PodStatus)
			for _, st := range e.NodeStatuses() {
				sums.check(r, st)
			}
		},
		cluster: c, workload: w, stream: newPodStream(w, seed),
	}
}

func scanLarge(cfg runConfig, tr *tracer) (*result, error) {
	nodes := scaled(50000, cfg.Scale)
	const meanReq = 0.05
	return runBursts(cfg, tr, burstSpec{
		workload: "scan-large", burst: 64, warmBursts: 2, workers: 1, rateCap: 1300,
		// A tenth of the fleet's capacity: below that no headroom bucket
		// fills, nothing is pruned and every decision scans every node.
		podBudget:  int(0.10*float64(nodes)/meanReq) - 2*64,
		submitKind: spSubmit, submitMetric: "engine.submit_ns_per_pod",
		exactRepeat: true,
		build: func(wrap func(unisched.SchedulerFactory) unisched.SchedulerFactory) (*burstTarget, error) {
			w := uniformFleet(cfg.Seed, nodes, 4, meanReq)
			// One pod per scheduling batch: how a burst splits into batches
			// depends on how the worker's pops race the submissions, and
			// in-batch reservations move headroom buckets, so only
			// single-pod batches make the visit counters a pure function of
			// the seed. Commit cost is a hundredth of a 50,000-node scan.
			return engineTarget(w, cfg.Seed, wrap(alibabaFactory), unisched.EngineConfig{
				Workers: 1, Shards: 16, QueueCap: 1 << 12, MaxBatch: 1, Seed: cfg.Seed,
			}), nil
		},
	})
}

func churnSoak(cfg runConfig, tr *tracer) (*result, error) {
	// 1,024 nodes and waves of 2,048 pods at any scale: this is the shape
	// of BenchmarkEngineSoak, whose flat plateau the workload is here to
	// explain, and it is small already.
	const nodes, wave = 1024, 2048
	return runBursts(cfg, tr, burstSpec{
		workload: "churn-soak", burst: wave, warmBursts: 2, workers: 2, rateCap: 58000,
		podBudget: math.MaxInt32, lifetimeTicks: 2,
		submitKind: spSubmit, submitMetric: "engine.submit_ns_per_pod",
		build: func(wrap func(unisched.SchedulerFactory) unisched.SchedulerFactory) (*burstTarget, error) {
			// Ten pods fill a node; two waves alive at once fill 40% of
			// the fleet, so capacity never refuses a pod.
			w := uniformFleet(cfg.Seed, nodes, 1, 0.1)
			return engineTarget(w, cfg.Seed, wrap(alibabaFactory), unisched.EngineConfig{
				Workers: 2, Shards: 16, QueueCap: 2 * wave, Seed: cfg.Seed,
			}), nil
		},
	})
}

func fedLarge(cfg runConfig, tr *tracer) (*result, error) {
	nodes := scaled(50000, cfg.Scale)
	const meanReq, partitions = 0.05, 4
	return runBursts(cfg, tr, burstSpec{
		workload: "fed-large", burst: 256, warmBursts: 2, workers: partitions, rateCap: 8200,
		podBudget:  int(0.40*float64(nodes)/meanReq) - 2*256,
		submitKind: spFedSubmit, submitMetric: "federation.submit_ns_per_pod",
		build: func(wrap func(unisched.SchedulerFactory) unisched.SchedulerFactory) (*burstTarget, error) {
			w := uniformFleet(cfg.Seed, nodes, 4, meanReq)
			f, err := unisched.NewFederation(w.Nodes, wrap(alibabaFactory), unisched.FederationConfig{
				Partitions: partitions, RefreshEvery: 8192,
				Engine: unisched.EngineConfig{Workers: 1, Shards: 16, QueueCap: 1 << 12, Seed: cfg.Seed},
			})
			if err != nil {
				return nil, err
			}
			f.Start()
			return federationTarget(f, w, cfg.Seed), nil
		},
	})
}

func federationTarget(f *unisched.Federation, w *unisched.Workload, seed int64) *burstTarget {
	sum := func() (counters, unisched.FederationSnapshot) {
		sn := f.Snapshot()
		var c counters
		for _, ps := range sn.Partitions {
			c = c.plus(countersOf(ps))
		}
		// Partition records superseded by a spillover would count twice;
		// the merged federation view is the authority on conservation.
		c.Submitted, c.Accepted, c.Placed, c.Shed, c.Lost = sn.Submitted, sn.Submitted-sn.Shed, sn.Placed, sn.Shed, sn.Lost()
		return c, sn
	}
	return &burstTarget{
		submit: f.Submit, drain: f.Drain, stop: f.Stop,
		now:      func() int64 { return 0 },
		snapshot: func() counters { c, _ := sum(); return c },
		verify: func(r *result, pods []*unisched.Pod) {
			sums := sumPlacements(r, len(w.Nodes), pods, f.PodStatus)
			// Every partition lists the whole fleet with the nodes it
			// does not own Down and empty, so the fleet's accounting is
			// the sum over partitions.
			merged := make([]unisched.EngineNodeStatus, len(w.Nodes))
			for _, b := range f.Partitions() {
				local, ok := b.(interface{ Engine() *unisched.Engine })
				if !ok {
					r.problem("a federation partition does not run in-process")
					return
				}
				for _, st := range local.Engine().NodeStatuses() {
					m := &merged[st.ID]
					m.ID, m.CapCPU, m.CapMem = st.ID, st.CapCPU, st.CapMem
					m.Pods += st.Pods
					m.ReqCPU += st.ReqCPU
					m.ReqMem += st.ReqMem
				}
			}
			for _, st := range merged {
				sums.check(r, st)
			}
		},
		setFedLayers: func(r *result) {
			c, sn := sum()
			r.set("federation.spills_per_kpod", perPlaced(1000*float64(sn.Spills), sn.Placed))
			lo, hi := int64(math.MaxInt64), int64(0)
			var busy float64
			for _, ps := range sn.Partitions {
				lo, hi = min(lo, ps.Placed), max(hi, ps.Placed)
				busy += ps.SchedSeconds + ps.CommitSeconds
			}
			r.set("federation.partition_imbalance", ratio(float64(hi), float64(lo)))
			r.set("federation.nodes_visited_per_decision", ratio(float64(c.Visited), float64(c.Decisions)))
			// Busy time is cumulative; it is held against the whole life
			// of the federation, which the traced window dominates.
			r.set("federation.partition_busy_frac", ratio(busy, float64(len(sn.Partitions))*sn.WallSeconds))
		},
		workload: w, stream: newPodStream(w, seed),
	}
}

// scaled shrinks a full-size count by the run's scale, keeping at least 64.
func scaled(full int, scale float64) int {
	n := int(float64(full) * scale)
	if n < 64 {
		n = 64
	}
	return n
}
