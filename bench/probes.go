//go:build !noprobe

package main

import (
	"fmt"
	"time"

	"unisched"
	"unisched/bench/probe"
)

// probesBuilt reports whether this binary carries the internal-layer
// probes. run.sh rebuilds with the noprobe tag when bench/probe no longer
// compiles against unisched/internal, and the end-to-end runs carry on.
const probesBuilt = true

// timedScheduler wraps s so that on sees every Schedule call.
func timedScheduler(s unisched.Scheduler, on func(start time.Time, d time.Duration, pods []*unisched.Pod)) unisched.Scheduler {
	return probe.Timed(s, on)
}

// runLayerProbes replays the workload's own inputs through single layers in
// isolation and records one metric per probe. A probe that fails or panics
// leaves its metrics unset and a note behind; it never fails the run.
func runLayerProbes(r *result, tr *tracer, in layerInputs, end *unisched.Cluster) {
	pin := probe.Inputs{Workload: in.Workload, Pods: in.Pods, Bodies: in.Bodies, Quota: in.Quota, Dir: in.Dir}
	run := func(name string, fn func() error) {
		defer func() {
			if p := recover(); p != nil {
				r.note("probe %s panicked: %v", name, p)
			}
		}()
		start := time.Now()
		err := fn()
		tr.endAt(spProbe, start, time.Now(), -1)
		if err != nil {
			r.note("probe %s: %v", name, err)
		}
	}
	run("trace.decode_link", func() error {
		ns, allocs, err := probe.DecodeLink(pin)
		if err != nil {
			return err
		}
		r.set("trace.decode_link_ns_per_pod", ns)
		r.set("trace.decode_allocs_per_pod", allocs)
		return nil
	})
	run("quota.admit_cycle", func() error {
		ns, err := probe.QuotaAdmitCycle(pin)
		if err != nil {
			return err
		}
		r.set("quota.admit_cycle_ns_per_pod", ns)
		return nil
	})
	run("journal.append", func() error {
		if in.Dir == "" {
			return fmt.Errorf("no scratch directory")
		}
		ns, err := probe.JournalAppend(pin)
		if err != nil {
			return err
		}
		r.set("journal.append_ns_per_record", ns)
		return nil
	})
	run("cluster.place_remove", func() error {
		ns, err := probe.ClusterPlaceRemove(pin)
		if err != nil {
			return err
		}
		r.set("cluster.place_remove_ns", ns)
		return nil
	})
	run("cluster.tick", func() error {
		ms, err := probe.ClusterTick(pin, end)
		if err != nil {
			return err
		}
		r.set("cluster.tick_ms_per_knode", ms)
		return nil
	})
}
