// Package probe holds the parts of the bench that reach into
// unisched/internal: the timing decorator around a scheduler and the
// replays of single layers in isolation. Only the traced run uses it, and
// the bench builds without it (build tag noprobe) when an internal refactor
// breaks it, so the end-to-end yardstick never depends on this package.
package probe

import (
	"time"

	"unisched/internal/pipeline"
	"unisched/internal/sched"
	"unisched/internal/trace"
)

// pipelined is what the engine and the simulator look for on a scheduler to
// read its stage counters and to partition its candidates. Every scheduler
// built on sched.Base has both.
type pipelined interface {
	Pipeline() *pipeline.Pipeline
	RestrictTo(ids []int)
}

// TimedScheduler reports the wall time of every Schedule call of the
// scheduler it wraps and otherwise behaves exactly like it.
type TimedScheduler struct {
	sched.Scheduler
	inner pipelined
	on    func(start time.Time, d time.Duration, pods []*trace.Pod)
}

// Timed wraps s so that on is called after every Schedule with the call's
// start, duration and batch. It returns s itself when s does not expose the
// pipeline the drivers need to see through the wrapper.
func Timed(s sched.Scheduler, on func(start time.Time, d time.Duration, pods []*trace.Pod)) sched.Scheduler {
	in, ok := s.(pipelined)
	if !ok {
		return s
	}
	return &TimedScheduler{Scheduler: s, inner: in, on: on}
}

// Schedule times the wrapped call.
func (t *TimedScheduler) Schedule(pods []*trace.Pod, now int64) []sched.Decision {
	start := time.Now()
	out := t.Scheduler.Schedule(pods, now)
	t.on(start, time.Since(start), pods)
	return out
}

// Pipeline forwards to the wrapped scheduler.
func (t *TimedScheduler) Pipeline() *pipeline.Pipeline { return t.inner.Pipeline() }

// RestrictTo forwards to the wrapped scheduler.
func (t *TimedScheduler) RestrictTo(ids []int) { t.inner.RestrictTo(ids) }
