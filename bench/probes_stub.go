//go:build noprobe

package main

import (
	"time"

	"unisched"
)

const probesBuilt = false

func timedScheduler(s unisched.Scheduler, _ func(start time.Time, d time.Duration, pods []*unisched.Pod)) unisched.Scheduler {
	return s
}

func runLayerProbes(r *result, _ *tracer, _ layerInputs, _ *unisched.Cluster) {
	r.note("layer probes were not built (bench/probe does not compile against this tree); their metrics are missing")
}
