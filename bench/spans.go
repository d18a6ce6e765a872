package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one boundary between the bench and a layer of the system.
type spanKind int

const (
	spRound     spanKind = iota // one burst, wave, phase or replay: parent of the rest
	spSubmit                    // Engine.Submit
	spFedSubmit                 // Federation.Submit
	spDrain                     // Drain of an engine or federation
	spSchedule                  // Scheduler.Schedule, through probe.TimedScheduler
	spRequest                   // one POST /v1/pods round trip
	spPoll                      // one GET /v1/pods/{id} round trip
	spSimulate                  // one Simulate call
	spProbe                     // one isolated layer probe
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.round", "engine.submit", "federation.submit", "engine.drain",
	"sched.schedule", "unischedd.request", "unischedd.poll", "sim.simulate", "bench.probe",
}

// spanParent gives, for each kind, the kind whose interval it falls in on
// the same goroutine, or -1. Schedule spans run on the engine's worker
// goroutines while the bench sits in Submit or Drain, so inside an engine
// they overlap their siblings and are not subtracted from anyone's self
// time; under Simulate they are sequential children (see selfNs).
var spanParent = [numSpanKinds]spanKind{
	spRound: -1, spSubmit: spRound, spFedSubmit: spRound, spDrain: spRound,
	spSchedule: spRound, spRequest: spRound, spPoll: spRound, spSimulate: spRound, spProbe: -1,
}

// spanSampleEvery is the share of per-pod spans kept as records: one pod in
// this many, chosen by pod ID so that every layer samples the same pods.
// Counts and total durations stay exact.
const spanSampleEvery = 64

type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Pod     int64  `json:"pod"`
}

// tracer records spans from the bench's own call sites. It is off by
// default; every method is a single atomic load when off, so the untraced
// run pays nothing else.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	agg     [numSpanKinds]struct{ count, ns atomic.Int64 }
	round   atomic.Int64 // ID of the open round span, parent of new spans

	mu     sync.Mutex
	nextID int64
	spans  []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool { return t.enabled.Load() }

// begin returns the start time for a span, or the zero time when tracing
// is off; end ignores a zero start.
func (t *tracer) begin() time.Time {
	if !t.enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span of the given kind for pod (-1 when the span is not
// about one pod). Per-pod spans are kept as records for one pod in
// spanSampleEvery; spans without a pod are always kept.
func (t *tracer) end(kind spanKind, start time.Time, pod int64) {
	if start.IsZero() {
		return
	}
	t.endAt(kind, start, time.Now(), pod)
}

func (t *tracer) endAt(kind spanKind, start, end time.Time, pod int64) {
	t.agg[kind].count.Add(1)
	t.agg[kind].ns.Add(end.Sub(start).Nanoseconds())
	if pod >= 0 && pod%spanSampleEvery != 0 {
		return
	}
	t.mu.Lock()
	t.nextID++
	t.spans = append(t.spans, spanRecord{
		ID: t.nextID, Parent: t.round.Load(), Name: spanNames[kind],
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(), Pod: pod,
	})
	t.mu.Unlock()
}

// beginRound opens the span every following span hangs under until
// endRound. Rounds do not nest.
func (t *tracer) beginRound() time.Time {
	if !t.enabled.Load() {
		return time.Time{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.round.Store(id)
	return time.Now()
}

func (t *tracer) endRound(start time.Time) {
	if start.IsZero() {
		return
	}
	end := time.Now()
	id := t.round.Swap(0)
	t.agg[spRound].count.Add(1)
	t.agg[spRound].ns.Add(end.Sub(start).Nanoseconds())
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		ID: id, Name: spanNames[spRound], Pod: -1,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

func (t *tracer) count(kind spanKind) int64 { return t.agg[kind].count.Load() }
func (t *tracer) totalNs(kind spanKind) int64 {
	return t.agg[kind].ns.Load()
}

// perCall is the mean duration of one span of the kind, in nanoseconds.
func (t *tracer) perCall(kind spanKind) float64 {
	if n := t.count(kind); n > 0 {
		return float64(t.totalNs(kind)) / float64(n)
	}
	return 0
}

// selfNs is a kind's total time minus the time of the kinds that run
// inside it on the same goroutine. concurrentSchedule says the Schedule
// spans ran on other goroutines (an engine's workers) and so cover none of
// the parent's own time.
func (t *tracer) selfNs(kind spanKind, concurrentSchedule bool) int64 {
	self := t.totalNs(kind)
	for child := spanKind(0); child < numSpanKinds; child++ {
		if spanParent[child] != kind || (child == spSchedule && concurrentSchedule) {
			continue
		}
		self -= t.totalNs(child)
	}
	if self < 0 {
		self = 0
	}
	return self
}

type spanAggregate struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Host        hostInfo           `json:"host"`
	SampleEvery int                `json:"span_sample_every"`
	Aggregates  []spanAggregate    `json:"aggregates"`
	Metrics     map[string]float64 `json:"per_layer_metrics"`
	Spans       []spanRecord       `json:"spans"`
}

// write stores the spans and their aggregates as <dir>/<workload>.trace.json.
func (t *tracer) write(dir, workload string, seed int64, concurrentSchedule bool, metrics map[string]float64) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, Host: readHostInfo(), SampleEvery: spanSampleEvery, Metrics: metrics}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if t.count(k) == 0 {
			continue
		}
		tf.Aggregates = append(tf.Aggregates, spanAggregate{
			Name: spanNames[k], Count: t.count(k), TotalNs: t.totalNs(k), SelfNs: t.selfNs(k, concurrentSchedule),
		})
	}
	t.mu.Lock()
	tf.Spans = append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	raw, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
