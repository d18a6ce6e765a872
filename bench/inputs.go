package main

import (
	"fmt"
	"math/rand"
	"sort"

	"unisched"
)

// tickSeconds is the engine's and the simulator's virtual step.
const tickSeconds = 30

// lsApp returns a long-running latency-sensitive application with the
// given per-pod request, shaped like the generator's LS population: usage
// far below the request, a mild diurnal cycle, no affinity.
func lsApp(id string, r *rand.Rand, req float64) *unisched.App {
	return &unisched.App{
		ID: id, SLO: unisched.SLOLS,
		Request:     unisched.Resources{CPU: req, Mem: req},
		Limit:       unisched.Resources{CPU: req * 2, Mem: req * 1.3},
		CPUBaseUtil: 0.15 + 0.1*r.Float64(), CPUDiurnalAmp: 0.3, CPUNoise: 0.1,
		MemUtil: 0.3 + 0.2*r.Float64(), MemCoV: 0.005,
		QPSBase: 100, RTBase: 20, PSISensitivity: 0.5 + r.Float64(), RTDepNoise: 0.5,
		Phase: 0.25, Affinity: -1,
	}
}

// uniformFleet builds a fleet of identical unit-capacity nodes and a small
// catalogue of LS applications whose requests scatter ±20% around meanReq.
// The seed decides the catalogue and, through podStream, every pod.
func uniformFleet(seed int64, nodes, apps int, meanReq float64) *unisched.Workload {
	r := rand.New(rand.NewSource(seed))
	w := &unisched.Workload{Horizon: 24 * 3600, Seed: seed}
	for i := 0; i < apps; i++ {
		w.Apps = append(w.Apps, lsApp(fmt.Sprintf("ls-%03d", i), r, meanReq*(0.8+0.4*r.Float64())))
	}
	w.Nodes = make([]*unisched.Node, nodes)
	for i := range w.Nodes {
		w.Nodes[i] = &unisched.Node{ID: i, Capacity: unisched.Resources{CPU: 1, Mem: 1}}
	}
	return w
}

// podStream deals pods of a workload's applications in a seeded order with
// consecutive IDs. It is the only source of pods for the engine workloads,
// so the same seed always submits the same pods in the same order.
type podStream struct {
	w *unisched.Workload
	r *rand.Rand
	// next is the ID of the next pod and stride the step to the one after,
	// so that several streams can share an ID space without colliding.
	next, stride int
}

func newPodStream(w *unisched.Workload, seed int64) *podStream {
	return &podStream{w: w, r: rand.New(rand.NewSource(seed ^ 0x5eed)), stride: 1}
}

// take returns n fresh linked pods. lifetime is the absolute virtual time
// at which they expire; 0 means they run for ever.
func (s *podStream) take(n int, lifetime int64) ([]*unisched.Pod, error) {
	out := make([]*unisched.Pod, n)
	for i := range out {
		a := s.w.Apps[s.r.Intn(len(s.w.Apps))]
		p := &unisched.Pod{
			ID: s.next, AppID: a.ID, SLO: a.SLO, Request: a.Request, Limit: a.Limit,
			CPUScale: 0.9 + 0.2*s.r.Float64(), MemScale: 0.95 + 0.1*s.r.Float64(),
			Lifetime: lifetime,
		}
		if a.MeanDuration > 0 {
			// Batch pods need work to do; two ticks' worth keeps them as
			// short-lived as the lifetime that also bounds them.
			p.Work = a.Request.CPU * a.CPUBaseUtil * p.CPUScale * 2 * tickSeconds
		}
		if err := s.w.LinkPod(p); err != nil {
			return nil, err
		}
		s.next += s.stride
		out[i] = p
	}
	return out, nil
}

// daemonCatalogue generates the application catalogue and fleet the daemon
// builds for itself from -nodes, -hours and -seed (cmd/unischedd's
// loadWorkload does exactly this), so the pods the bench posts name
// applications the daemon knows.
func daemonCatalogue(seed int64, nodes, hours int) (*unisched.Workload, error) {
	cfg := unisched.DefaultWorkload()
	cfg.Seed = seed
	cfg.NumNodes = nodes
	cfg.Horizon = int64(hours) * 3600
	return unisched.GenerateWorkload(cfg)
}

// servableApps narrows a generated catalogue to the applications the
// serve-http mix draws from: the explicit-SLO classes of the Alibaba
// co-location mix (long-running LS and LSR beside short BE), without
// affinity constraints, so that no pod can fail for lack of a matching node
// group.
func servableApps(w *unisched.Workload) *unisched.Workload {
	out := &unisched.Workload{Nodes: w.Nodes, Horizon: w.Horizon, Seed: w.Seed}
	for _, a := range w.Apps {
		if a.SLO.Explicit() && a.Affinity < 0 {
			out.Apps = append(out.Apps, a)
		}
	}
	// LinkPod builds the application index on first use, without a lock;
	// build it now, before the senders link pods from two goroutines.
	out.AppByID("")
	return out
}

// replayPods caps the trace optum-replay runs, at full scale: the first
// 22,000 pods by submission time, a little under what the base trace holds.
const replayPods = 22000

// replayBaseSeed is the generator seed of the one base trace optum-replay
// runs. The generator draws its whole application catalogue and its
// heavy-tailed batch bursts from the seed: at a size a run can afford, the
// pod count of a trace swings between 23,000 and 34,000 and Optum's cost per
// decision by a quarter from one seed to the next, ten times the run-to-run
// noise, and a yardstick that wide measures the seed. So the run's seed
// perturbs a fixed trace instead (see replayTrace), which changes every
// placement and leaves the amount of work alone.
const replayBaseSeed = 1

// replayTrace builds the LS/LSR/BE trace optum-replay runs: the default
// generator mix at the given size, without affinity constraints, cut to its
// first maxPods pods by submission time (0 = no cap), and then perturbed by
// the run's seed: every pod's submission moves by up to a tick either way
// and its CPU and memory scale by up to ±5%. Pods submitted in the last ten
// minutes are dropped, so that every pod has twenty ticks in which to be
// placed and none is pending merely because the horizon cut it off.
func replayTrace(seed int64, nodes int, horizon int64, maxPods int) (*unisched.Workload, error) {
	cfg := unisched.DefaultWorkload()
	cfg.Seed = replayBaseSeed
	cfg.NumNodes = nodes
	cfg.Horizon = horizon
	cfg.AffinityFraction = 0
	w, err := unisched.GenerateWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if maxPods > 0 && len(w.Pods) > maxPods {
		w.Pods = w.Pods[:maxPods] // sorted by submission time already
	}
	r := rand.New(rand.NewSource(seed))
	kept := w.Pods[:0]
	for _, p := range w.Pods {
		p.Submit += int64(r.Intn(2*tickSeconds+1)) - tickSeconds
		p.CPUScale *= 0.95 + 0.1*r.Float64()
		p.MemScale *= 0.95 + 0.1*r.Float64()
		if p.Submit < 0 {
			p.Submit = 0
		}
		if p.Submit <= horizon-600 {
			kept = append(kept, p)
		}
	}
	// The simulator wants pods in submission order with IDs in that order.
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Submit < kept[j].Submit })
	for i, p := range kept {
		p.ID = i
	}
	w.Pods = kept
	return w, nil
}
