package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"unisched"
)

const (
	serveNodes   = 256
	serveSenders = 2 // nproc here: one keep-alive connection each
	// serveRate is Phase A's open-loop rate in pods per second, a little
	// under half of what the closed loop reaches on this box, so the queue
	// does not grow and latency is read below saturation.
	serveRate = 3000.0
	// servePodTicks is how many virtual ticks a pod lives: at 25 ms a tick
	// a few hundred pods are alive at once and the fleet stays far below
	// half requested, so no pod ever waits for capacity.
	servePodTicks = 4
	// serveRateCap, in pods per second of Phase B, makes the phase a fixed
	// amount of work (see burstSpec.rateCap): some 15% under what the
	// closed loop reaches on the seed commit.
	serveRateCap = 12000.0
	// placeSampleEvery is the share of Phase A pods whose placement the
	// sender polls for.
	placeSampleEvery = 32
	// anchorPods live for ever. Once every short-lived pod has expired they
	// are the daemon's whole state, which the bench can then recompute
	// without racing the tick loop, before the kill and after the restart.
	anchorPods  = 512
	anchorFirst = 1 << 30
)

// vclock estimates the daemon's virtual clock from one reading of it.
type vclock struct {
	v0 int64
	t0 time.Time
}

func (k vclock) now() int64 { return k.v0 + int64(time.Since(k.t0)/daemonTickWall)*tickSeconds }

// httpSender is one of the load generator's connections and what it saw.
type httpSender struct {
	c        *conn
	stream   *podStream
	acked    []int // IDs answered 202, in order
	requests int64
	wire     int64
	refused  int64 // replies other than 202
	placeMs  []float64
}

// post submits one pod. A reply other than 202 is counted and is not an
// error; an error means the connection is unusable.
func (s *httpSender) post(tr *tracer, p *unisched.Pod) (time.Time, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return time.Now(), err
	}
	span := tr.begin()
	status, _, wire, err := s.c.do("POST", "/v1/pods", benchTokens[p.ID%len(benchTokens)], body)
	at := time.Now()
	tr.end(spRequest, span, int64(p.ID))
	s.requests++
	s.wire += int64(wire)
	if err != nil {
		return at, err
	}
	if status != http.StatusAccepted {
		s.refused++
		return at, nil
	}
	s.acked = append(s.acked, p.ID)
	return at, nil
}

// status reads one pod's status over the sender's connection.
func (s *httpSender) status(tr *tracer, id int) (unisched.EnginePodStatus, int, error) {
	span := tr.begin()
	code, reply, _, err := s.c.do("GET", "/v1/pods/"+strconv.Itoa(id), adminToken, nil)
	tr.end(spPoll, span, int64(id))
	var st unisched.EnginePodStatus
	if err != nil || code != http.StatusOK {
		return st, code, err
	}
	return st, code, json.Unmarshal(reply, &st)
}

// awaitPlaced polls a pod back to back until it shows as placed (or already
// gone again) and returns the time that was first seen.
func (s *httpSender) awaitPlaced(tr *tracer, id int) (time.Time, error) {
	for tries := 0; tries < 100000; tries++ {
		st, code, err := s.status(tr, id)
		if err != nil {
			return time.Now(), err
		}
		if code == http.StatusOK && (st.Phase == "placed" || st.Phase == "done") {
			return time.Now(), nil
		}
	}
	return time.Now(), fmt.Errorf("pod %d was not placed after 100000 polls", id)
}

func (s *httpSender) one(lifetime int64) (*unisched.Pod, error) {
	pods, err := s.stream.take(1, lifetime)
	if err != nil {
		return nil, err
	}
	return pods[0], nil
}

// serveRun is the state of one serve-http run.
type serveRun struct {
	cfg       runConfig
	tr        *tracer
	r         *result
	bin       string
	dir       string // data directory of the daemon under test
	quotaPath string
	catalogue *unisched.Workload
	mix       *unisched.Workload // the applications pods are drawn from
	d         *daemon
	senders   []*httpSender
	clock     vclock
}

func serveHTTP(cfg runConfig, tr *tracer) (*result, error) {
	run := &serveRun{cfg: cfg, tr: tr, r: newResult()}
	var err error
	if run.bin, run.r.BuildSeconds, err = buildDaemon(cfg); err != nil {
		return nil, err
	}
	defer func() {
		if run.d != nil {
			run.d.kill()
		}
		for _, s := range run.senders {
			s.c.close()
		}
	}()
	if err := run.setUp(); err != nil {
		return nil, err
	}
	if err := run.measure(); err != nil {
		return nil, err
	}
	return run.r, nil
}

// setUp generates the catalogue, writes the quota file and boots the daemon
// to readiness, several times over (see moreSetups); the last daemon is the
// one measured. Every boot is a fresh process already, so there is nothing
// for coldSetups to add.
func (run *serveRun) setUp() error {
	var setups []float64
	var spent time.Duration
	for rep := 0; moreSetups(rep, spent); rep++ {
		if run.d != nil {
			run.d.kill()
			run.d = nil
		}
		run.dir = filepath.Join(run.cfg.Work, fmt.Sprintf("data-%d", rep))
		if err := os.MkdirAll(run.dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		w, err := daemonCatalogue(run.cfg.Seed, serveNodes, 1)
		if err != nil {
			return err
		}
		run.catalogue, run.mix = w, servableApps(w)
		run.quotaPath = filepath.Join(run.cfg.Work, "quota.json")
		if err := writeQuotaFile(run.quotaPath, serveNodes); err != nil {
			return err
		}
		if run.d, err = startDaemon(run.bin, run.dir, run.quotaPath, serveNodes, run.cfg.Seed); err != nil {
			return err
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	run.r.set("setup_s", median(setups))
	if len(run.mix.Apps) == 0 {
		return fmt.Errorf("serve-http: the catalogue holds no servable application")
	}
	return run.connect()
}

// connect opens the senders' connections to the current daemon.
func (run *serveRun) connect() error {
	for i := 0; i < serveSenders; i++ {
		c, err := dial(run.d.addr)
		if err != nil {
			return err
		}
		if i < len(run.senders) {
			run.senders[i].c.close()
			run.senders[i].c = c
			continue
		}
		stream := newPodStream(run.mix, run.cfg.Seed+int64(i))
		stream.next, stream.stride = i, serveSenders
		run.senders = append(run.senders, &httpSender{c: c, stream: stream})
	}
	return nil
}

func (run *serveRun) calibrateClock() error {
	t0 := time.Now()
	sn, err := run.d.snapshot()
	if err != nil {
		return err
	}
	run.clock = vclock{v0: sn.VirtualNow, t0: t0}
	return nil
}

func (run *serveRun) lifetime() int64 { return run.clock.now() + servePodTicks*tickSeconds }

// errBudgetSpent stops a closed-loop sender once the phase has submitted
// all the pods it may.
var errBudgetSpent = errors.New("pod budget spent")

// closed runs the closed loop for a duration, or until budget pods have been
// submitted, and returns the pods acknowledged and the seconds it took.
func (run *serveRun) closed(d time.Duration, budget *atomic.Int64) (acked int, seconds float64, err error) {
	before := run.ackedTotal()
	errs := make([]error, len(run.senders))
	t0 := time.Now()
	closedLoop(t0.Add(d), len(run.senders), func(s, _ int) error {
		if budget.Add(-1) < 0 {
			return errBudgetSpent
		}
		p, err := run.senders[s].one(run.lifetime())
		if err == nil {
			_, err = run.senders[s].post(run.tr, p)
		}
		errs[s] = err
		return err
	})
	seconds = time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("serve-http: closed loop: %w", err)
		}
	}
	return run.ackedTotal() - before, seconds, nil
}

func (run *serveRun) ackedTotal() int {
	n := 0
	for _, s := range run.senders {
		n += len(s.acked)
	}
	return n
}

func (run *serveRun) measure() error {
	cfg, r, tr := run.cfg, run.r, run.tr
	window := time.Duration(cfg.Seconds * float64(time.Second))
	if err := run.calibrateClock(); err != nil {
		return err
	}
	// Untimed warm-up: a twentieth of the window in the closed loop fills
	// the daemon's pools and the connections' buffers.
	var budget atomic.Int64
	budget.Store(math.MaxInt64)
	if _, _, err := run.closed(window/20, &budget); err != nil {
		return err
	}

	// Phase A: open loop.
	if err := run.calibrateClock(); err != nil {
		return err
	}
	tr.enabled.Store(cfg.Traced)
	clientCPU0, wall0 := selfCPU(), time.Now()
	n := int(serveRate * 0.4 * cfg.Seconds)
	errsA := make([]error, len(run.senders))
	round := tr.beginRound()
	statsA := openLoop(time.Now().Add(time.Millisecond), n, serveRate, len(run.senders), func(s, i int, due time.Time) (time.Time, error) {
		snd := run.senders[s]
		if errsA[s] != nil {
			return time.Now(), errsA[s]
		}
		p, err := snd.one(run.lifetime())
		if err != nil {
			errsA[s] = err
			return time.Now(), err
		}
		acks := len(snd.acked)
		at, err := snd.post(tr, p)
		if err != nil {
			errsA[s] = err
			return at, err
		}
		if len(snd.acked) == acks {
			return at, fmt.Errorf("refused")
		}
		if (i/len(run.senders))%placeSampleEvery == 0 {
			seen, err := snd.awaitPlaced(tr, p.ID)
			if err != nil {
				errsA[s] = err
				return at, err
			}
			snd.placeMs = append(snd.placeMs, float64(seen.Sub(due).Nanoseconds())/1e6)
		}
		return at, nil
	})
	tr.endRound(round)
	for _, err := range errsA {
		if err != nil {
			return fmt.Errorf("serve-http: open loop: %w", err)
		}
	}
	var ackMs []float64
	for i, d := range statsA.latency {
		if !statsA.failed[i] {
			ackMs = append(ackMs, float64(d.Nanoseconds())/1e6)
		}
	}
	if len(ackMs) == 0 {
		return fmt.Errorf("serve-http: no request of the open loop was acknowledged")
	}
	var placeMs []float64
	for _, s := range run.senders {
		placeMs = append(placeMs, s.placeMs...)
	}

	// Phase B: closed loop.
	snapB0, err := run.d.snapshot()
	if err != nil {
		return err
	}
	if err := run.calibrateClock(); err != nil {
		return err
	}
	// The phase runs as eight slices and reports the median slice's rate: a
	// slice that met a neighbour's noise moves a total and leaves the median
	// where it was. A traced run traces every other slice, so that the two
	// halves share the daemon's state and their rates can be held against
	// each other.
	const slices = 8
	phaseB := 0.6 * cfg.Seconds
	budget.Store(int64(serveRateCap * phaseB))
	var ackedB int
	var rates, tracedRate, plainRate, cpuUs []float64
	var daemonCPU time.Duration
	for i := 0; i < slices && budget.Load() > 0; i++ {
		tr.enabled.Store(cfg.Traced && i%2 == 1)
		cpu0, err := procCPU(run.d.pid())
		if err != nil {
			return err
		}
		round := tr.beginRound()
		acked, sec, err := run.closed(time.Duration(phaseB/slices*float64(time.Second)), &budget)
		tr.endRound(round)
		if err != nil {
			return err
		}
		if acked == 0 {
			break
		}
		cpu1, err := procCPU(run.d.pid())
		if err != nil {
			return err
		}
		cpuUs = append(cpuUs, float64((cpu1-cpu0).Microseconds())/float64(acked))
		daemonCPU += cpu1 - cpu0
		ackedB += acked
		rates = append(rates, float64(acked)/sec)
		if tr.on() {
			tracedRate = append(tracedRate, float64(acked)/sec)
		} else {
			plainRate = append(plainRate, float64(acked)/sec)
		}
	}
	tr.enabled.Store(false)
	clientCPU := selfCPU() - clientCPU0
	clientFrac := clientCPU.Seconds() / time.Since(wall0).Seconds()
	snapB1, err := run.d.snapshot()
	if err != nil {
		return err
	}
	if ackedB == 0 {
		return fmt.Errorf("serve-http: the closed loop acknowledged nothing")
	}
	podsB := snapB1.Accepted - snapB0.Accepted

	setRoundFigures(r, rates, cpuUs, ackMs)

	latenessP99 := percentile(durationsMs(statsA.lateness), 0.99)
	checkGeneratorHealth(r, latenessP99, clientFrac)

	// The anchors, then quiescence: every short-lived pod gone, every
	// anchor placed, nothing pending.
	anchors, err := run.submitAnchors()
	if err != nil {
		return err
	}
	quiet, err := run.awaitQuiet(len(anchors))
	if err != nil {
		return err
	}
	var requests, refused int64
	for _, s := range run.senders {
		requests += s.requests
		refused += s.refused
	}
	r.Attempted = requests
	r.Failed = refused + quiet.Shed + quiet.Exhausted + int64(quiet.Pending)
	if quiet.Lost() != 0 {
		r.problem("daemon snapshot reports %d lost submissions", quiet.Lost())
	}
	if quiet.Accepted != requests-refused {
		r.problem("daemon accepted %d of %d acknowledged submissions", quiet.Accepted, requests-refused)
	}
	before, err := run.verifyAnchors(anchors, nil)
	if err != nil {
		return err
	}
	setPeakRSS(r, run.d.pid())

	// Crash and recover.
	time.Sleep(100 * time.Millisecond)
	run.d.kill()
	recovered, err := startDaemon(run.bin, run.dir, run.quotaPath, serveNodes, cfg.Seed)
	if err != nil {
		return fmt.Errorf("serve-http: restart on the killed data directory: %w", err)
	}
	run.d = recovered
	if err := run.connect(); err != nil {
		return err
	}
	snapR, err := run.d.snapshot()
	if err != nil {
		return err
	}
	if snapR.Recovery == nil {
		r.problem("restarted daemon reports no recovery")
	}
	run.verifyDurable()
	if _, err := run.verifyAnchors(anchors, before); err != nil {
		return err
	}
	if err := run.verifyStateHash(); err != nil {
		return err
	}

	if !cfg.Traced {
		return nil
	}
	r.set("unischedd.ack_p50_ms", percentile(ackMs, 0.50))
	r.set("unischedd.ack_p99_ms", percentile(ackMs, 0.99))
	r.set("unischedd.place_p50_ms", percentile(placeMs, 0.50))
	r.set("unischedd.place_p99_ms", percentile(placeMs, 0.99))
	r.set("unischedd.recovery_s", recovered.bootSec)
	r.set("unischedd.server_cpu_us_per_pod", perPlaced(float64(daemonCPU.Microseconds()), podsB))
	r.set("bench.send_lateness_p99_ms", latenessP99)
	r.set("bench.client_cpu_frac", clientFrac)
	r.set("bench.trace_overhead_frac", median(tracedRate)/median(plainRate)-1)
	d := countersOf(snapB1).minus(countersOf(snapB0))
	setEngineLayers(r, d, 2, snapDuration(snapB0, snapB1))
	r.set("quota.shed_per_pod", ratio(float64(d.QuotaShed), float64(d.Submitted)))
	if j0, j1 := snapB0.Journal, snapB1.Journal; j0 != nil && j1 != nil {
		r.set("journal.records_per_pod", perPlaced(float64(j1.Records-j0.Records), podsB))
		r.set("journal.bytes_per_pod", perPlaced(float64(j1.Bytes-j0.Bytes), podsB))
		r.set("journal.records_per_fsync", ratio(float64(j1.Records-j0.Records), float64(j1.Fsyncs-j0.Fsyncs)))
		r.set("journal.fsync_mean_ms", j1.FsyncMeanMs)
		r.set("journal.fsync_p99_ms", j1.FsyncP99Ms)
	} else {
		r.problem("daemon snapshot carries no journal statistics")
	}
	if rec := snapR.Recovery; rec != nil {
		r.set("engine.recovery_replay_ms", rec.DurationMs)
		r.set("engine.recovery_records", float64(rec.ReplayedRecords))
		r.set("journal.replay_us_per_record", ratio(rec.DurationMs*1000, float64(rec.ReplayedRecords)))
	}
	if err := run.lifecycleBreakdown(); err != nil {
		return err
	}

	// The layer probes replay pods drawn from the mix the daemon was fed.
	sample, err := newPodStream(run.mix, cfg.Seed).take(probeSample, 0)
	if err != nil {
		return err
	}
	in, err := newLayerInputs(cfg, run.catalogue, sample)
	if err != nil {
		return err
	}
	runLayerProbes(r, tr, in, nil)
	setHTTPFloor(r, tr, in)
	if err := submitProbe(r, tr, run.catalogue, sample); err != nil {
		r.note("probe engine.submit: %v", err)
	}
	chain := r.Metrics["unischedd.http_floor_us"] + (r.Metrics["trace.decode_link_ns_per_pod"]+
		r.Metrics["quota.admit_cycle_ns_per_pod"]+r.Metrics["engine.submit_ns_per_pod"]+r.Metrics["journal.append_ns_per_record"])/1000
	r.set("unischedd.unattributed_us", r.Metrics["unischedd.ack_p50_ms"]*1000-chain)
	return nil
}

func snapDuration(a, b unisched.EngineSnapshot) time.Duration {
	return time.Duration((b.WallSeconds - a.WallSeconds) * float64(time.Second))
}

// checkGeneratorHealth marks a run invalid when the load generator, not the
// system, set its figures: the open loop ran more than a millisecond behind
// schedule at the 99th percentile, or the bench used more than 60% of a
// core while it shared the box with the daemon.
func checkGeneratorHealth(r *result, latenessP99Ms, clientCPUFrac float64) {
	if latenessP99Ms > 1 {
		r.note("%s: open-loop send lateness p99 %.3f ms exceeds 1 ms; re-run, do not compare", invalidRunMark, latenessP99Ms)
	}
	if clientCPUFrac > 0.6 {
		r.note("%s: the load generator used %.0f%% of a core (limit 60%%); re-run, do not compare", invalidRunMark, 100*clientCPUFrac)
	}
}

// invalidRunMark is how a run's report says the generator-health guard
// tripped; -repeat looks for it.
const invalidRunMark = "INVALID RUN"

// submitAnchors posts the long-lived pods, drawn from the long-running
// applications only so that nothing but the bench ever removes them.
func (run *serveRun) submitAnchors() ([]*unisched.Pod, error) {
	long := &unisched.Workload{Nodes: run.mix.Nodes, Horizon: run.mix.Horizon}
	for _, a := range run.mix.Apps {
		if a.LongRunning() {
			long.Apps = append(long.Apps, a)
		}
	}
	if len(long.Apps) == 0 {
		return nil, fmt.Errorf("serve-http: the catalogue holds no long-running application")
	}
	stream := newPodStream(long, run.cfg.Seed)
	stream.next = anchorFirst
	pods, err := stream.take(anchorPods, 0)
	if err != nil {
		return nil, err
	}
	snd := run.senders[0]
	acks := len(snd.acked)
	for _, p := range pods {
		if _, err := snd.post(run.tr, p); err != nil {
			return nil, fmt.Errorf("serve-http: anchors: %w", err)
		}
	}
	if got := len(snd.acked) - acks; got != len(pods) {
		run.r.problem("daemon acknowledged %d of %d anchor pods", got, len(pods))
	}
	return pods, nil
}

// awaitQuiet waits until the daemon runs the anchors and nothing else.
func (run *serveRun) awaitQuiet(anchors int) (unisched.EngineSnapshot, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		sn, err := run.d.snapshot()
		if err != nil {
			return sn, err
		}
		if sn.Pending == 0 && sn.Running == anchors {
			return sn, nil
		}
		if time.Now().After(deadline) {
			run.r.problem("daemon did not quiesce: %d pending, %d running, want 0 and %d", sn.Pending, sn.Running, anchors)
			return sn, nil
		}
		time.Sleep(2 * daemonTickWall)
	}
}

// verifyAnchors reads every anchor's placement, recomputes the per-node
// request sums and holds them against GET /v1/nodes. With want set it also
// requires every anchor to sit on the node it sat on before the crash.
func (run *serveRun) verifyAnchors(anchors []*unisched.Pod, want map[int]int) (map[int]int, error) {
	r := run.r
	got := make(map[int]int, len(anchors))
	sums := newNodeSums(serveNodes)
	for _, p := range anchors {
		st, code, err := run.senders[0].status(run.tr, p.ID)
		if err != nil {
			return nil, fmt.Errorf("serve-http: anchor status: %w", err)
		}
		if code != http.StatusOK || st.Phase != "placed" {
			r.problem("anchor pod %d: status %d phase %q, want 200 placed", p.ID, code, st.Phase)
			continue
		}
		got[p.ID] = st.Node
		if node, ok := want[p.ID]; want != nil && (!ok || node != st.Node) {
			r.problem("anchor pod %d sits on node %d after recovery, %d before the crash", p.ID, st.Node, node)
		}
		if err := sums.add(st.Node, p.Request); err != nil {
			r.problem("anchor pod %d: %v", p.ID, err)
		}
	}
	nodes, err := run.d.nodes()
	if err != nil {
		return nil, err
	}
	if len(nodes) != serveNodes {
		r.problem("daemon lists %d nodes, want %d", len(nodes), serveNodes)
	}
	for _, st := range nodes {
		sums.check(r, st)
	}
	return got, nil
}

// verifyDurable asks the restarted daemon for pods it acknowledged before
// the kill: one in sixteen of all of them and every one of the last two
// thousand, the ones a lost tail of the log would take first. All were
// acknowledged at least 100 ms before the kill, ten group commits earlier.
func (run *serveRun) verifyDurable() {
	for _, s := range run.senders {
		for i, id := range s.acked {
			if i%16 != 0 && i < len(s.acked)-1000 {
				continue
			}
			_, code, err := s.status(run.tr, id)
			if err != nil {
				run.r.problem("pod %d after recovery: %v", id, err)
				return
			}
			if code != http.StatusOK {
				run.r.problem("pod %d was acknowledged before the kill but the restarted daemon answers %d", id, code)
			}
		}
	}
}

// verifyStateHash stops the recovered daemon gracefully and starts it once
// more: the hash it prints on the way down must be the hash it recovers.
func (run *serveRun) verifyStateHash() error {
	d := run.d
	run.d = nil
	if err := d.terminate(); err != nil {
		return fmt.Errorf("serve-http: graceful stop: %w", err)
	}
	final, err := d.stateHash("final_state_hash")
	if err != nil {
		run.r.problem("%v", err)
		return nil
	}
	again, err := startDaemon(run.bin, run.dir, run.quotaPath, serveNodes, run.cfg.Seed)
	if err != nil {
		return fmt.Errorf("serve-http: start after graceful stop: %w", err)
	}
	run.d = again
	recovered, err := again.stateHash("recovered_state_hash")
	if err != nil {
		run.r.problem("%v", err)
		return nil
	}
	if recovered != final {
		run.r.problem("final_state_hash %s but the next start recovered_state_hash %s", final, recovered)
	}
	return nil
}

// lifecycleBreakdown boots a second daemon with the lifecycle recorder
// sampling every pod, drives a short open loop against it and reads the
// server's own split of submit → placed, which the client-side place
// latency of the same pods must bound from above.
func (run *serveRun) lifecycleBreakdown() error {
	dir := filepath.Join(run.cfg.Work, "data-lifecycle")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	main := run.d
	d, err := startDaemon(run.bin, dir, run.quotaPath, serveNodes, run.cfg.Seed, "-lifecycle-sample", "1", "-lifecycle-buffer", "8192")
	if err != nil {
		return fmt.Errorf("serve-http: lifecycle daemon: %w", err)
	}
	defer func() {
		d.kill()
		run.d = main
	}()
	run.d = d
	if err := run.connect(); err != nil {
		return err
	}
	if err := run.calibrateClock(); err != nil {
		return err
	}
	var placeMs []float64
	n := int(serveRate * 0.1 * run.cfg.Seconds)
	var firstErr error
	openLoop(time.Now().Add(time.Millisecond), n, serveRate, 1, func(_, _ int, due time.Time) (time.Time, error) {
		snd := run.senders[0]
		p, err := snd.one(run.lifetime())
		if err == nil {
			_, err = snd.post(run.tr, p)
		}
		if err == nil {
			var seen time.Time
			if seen, err = snd.awaitPlaced(run.tr, p.ID); err == nil {
				placeMs = append(placeMs, float64(seen.Sub(due).Nanoseconds())/1e6)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return time.Now(), err
	})
	if firstErr != nil {
		return fmt.Errorf("serve-http: lifecycle phase: %w", firstErr)
	}
	sn, err := d.snapshot()
	if err != nil {
		return err
	}
	e2e := sn.E2E
	if e2e == nil {
		run.r.note("lifecycle daemon reports no e2e summary; obs.* are missing")
		return nil
	}
	r := run.r
	r.set("obs.queue_wait_mean_ms", e2e.QueueWaitMeanMs)
	r.set("obs.sched_mean_ms", e2e.SchedMeanMs)
	r.set("obs.commit_mean_ms", e2e.CommitMeanMs)
	r.set("obs.fsync_wait_mean_ms", e2e.FsyncWaitMeanMs)
	r.set("obs.e2e_p50_ms", e2e.P50Ms)
	r.set("obs.e2e_p99_ms", e2e.P99Ms)
	if outside := percentile(placeMs, 0.50); outside < e2e.P50Ms {
		r.note("client-side place p50 %.3f ms is below the server's e2e p50 %.3f ms on the same pods", outside, e2e.P50Ms)
	}
	return nil
}

// submitProbe times Engine.Submit alone: the sampled pods go into an
// in-process engine over the daemon's own fleet, without quota or journal,
// so that the figure is the queue hand-off and nothing the other probes
// already count.
func submitProbe(r *result, tr *tracer, w *unisched.Workload, pods []*unisched.Pod) error {
	e := unisched.NewEngine(unisched.NewCluster(w), alibabaFactory, unisched.EngineConfig{Workers: 2, Shards: 16, QueueCap: 2 * len(pods)})
	e.Start()
	defer e.Stop()
	start := time.Now()
	var total time.Duration
	for _, p := range pods {
		t0 := time.Now()
		err := e.Submit(p)
		total += time.Since(t0)
		if err != nil {
			return err
		}
	}
	tr.endAt(spProbe, start, time.Now(), -1)
	if !e.Drain(time.Minute) {
		return fmt.Errorf("probe engine did not drain")
	}
	r.set("engine.submit_ns_per_pod", float64(total.Nanoseconds())/float64(len(pods)))
	return nil
}
