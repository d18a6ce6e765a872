package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"unisched/internal/cluster"
	"unisched/internal/journal"
	"unisched/internal/quota"
	"unisched/internal/trace"
)

// Inputs is what a workload hands the layer probes: its own catalogue and a
// sample of the very pods it submitted, so that each layer is timed on the
// inputs the end-to-end run fed it.
type Inputs struct {
	Workload *trace.Workload
	Pods     []*trace.Pod
	// Bodies are the pods' JSON specs as POST /v1/pods carries them.
	Bodies [][]byte
	// Quota is the tenant tree the daemon runs with; the pods are dealt to
	// its tenants round robin.
	Quota quota.Config
	// Dir is an empty directory the journal probe may fill.
	Dir string
}

// DecodeLink times what the daemon's submit handler does to a request body
// before the engine sees it: a strict JSON decode into a pod and the
// resolution of its application.
func DecodeLink(in Inputs) (nsPerPod, allocsPerPod float64, err error) {
	if len(in.Bodies) == 0 {
		return 0, 0, fmt.Errorf("probe: no pod bodies")
	}
	pass := func() error {
		for _, body := range in.Bodies {
			var p trace.Pod
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&p); err != nil {
				return fmt.Errorf("probe: decode: %w", err)
			}
			if err := in.Workload.LinkPod(&p); err != nil {
				return fmt.Errorf("probe: link: %w", err)
			}
		}
		return nil
	}
	// The first pass warms the decoder's type cache and the allocator.
	if err := pass(); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := pass(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(len(in.Bodies))
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

// QuotaAdmitCycle times one pod's whole passage through the quota tree:
// resolve its leaf, admit, mark placed, unmark, release.
func QuotaAdmitCycle(in Inputs) (nsPerPod float64, err error) {
	if len(in.Pods) == 0 || len(in.Quota.Tenants) == 0 {
		return 0, fmt.Errorf("probe: no pods or tenants")
	}
	tree, err := quota.New(in.Quota)
	if err != nil {
		return 0, fmt.Errorf("probe: quota tree: %w", err)
	}
	start := time.Now()
	for i, p := range in.Pods {
		tenant := in.Quota.Tenants[i%len(in.Quota.Tenants)].Name
		leaf, err := tree.Resolve(tenant, "")
		if err != nil {
			return 0, fmt.Errorf("probe: resolve %q: %w", tenant, err)
		}
		if err := tree.Admit(leaf, p.Request); err != nil {
			return 0, fmt.Errorf("probe: admit: %w", err)
		}
		tree.MarkPlaced(leaf, p.ID, p.Request, p.SLO == trace.SLOBE)
		tree.UnmarkPlaced(leaf, p.ID, p.Request)
		tree.ReleaseAdmitted(leaf, p.Request)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(in.Pods)), nil
}

// JournalAppend opens a journal with the daemon's 10 ms group commit and
// appends, for every sampled pod, the records its life writes: an accept
// carrying the spec, a place and a remove. It returns the mean cost of one
// Append, which is what a submission waits for; the fsyncs run behind it.
func JournalAppend(in Inputs) (nsPerRecord float64, err error) {
	if len(in.Bodies) == 0 {
		return 0, fmt.Errorf("probe: no pod bodies")
	}
	j, _, err := journal.Open(journal.Config{Dir: in.Dir, FsyncEvery: 10 * time.Millisecond})
	if err != nil {
		return 0, fmt.Errorf("probe: journal open: %w", err)
	}
	records := 0
	start := time.Now()
	for i, body := range in.Bodies {
		id := int64(in.Pods[i].ID)
		for _, rec := range []struct {
			op   journal.Op
			blob []byte
		}{{journal.OpAccept, body}, {journal.OpPlace, nil}, {journal.OpRemove, nil}} {
			if _, err := j.Append(rec.op, 0, id, 0, 0, rec.blob); err != nil {
				j.Close()
				return 0, fmt.Errorf("probe: journal append: %w", err)
			}
			records++
		}
	}
	elapsed := time.Since(start)
	if err := j.Close(); err != nil {
		return 0, fmt.Errorf("probe: journal close: %w", err)
	}
	return float64(elapsed.Nanoseconds()) / float64(records), nil
}

// ClusterPlaceRemove times the cluster's write side alone: placing a pod on
// a node and removing it again, on a fresh cluster over the workload's
// fleet.
func ClusterPlaceRemove(in Inputs) (nsPerPair float64, err error) {
	if len(in.Pods) == 0 {
		return 0, fmt.Errorf("probe: no pods")
	}
	c := cluster.New(in.Workload.Nodes, cluster.DefaultPhysics())
	nodes := len(in.Workload.Nodes)
	pass := func() error {
		for i, p := range in.Pods {
			if _, err := c.Place(p, i%nodes, 0); err != nil {
				return fmt.Errorf("probe: place: %w", err)
			}
			c.Remove(p.ID, 0, false)
		}
		return nil
	}
	// The first pass faults in the node states the second one times.
	if err := pass(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := pass(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(in.Pods)), nil
}

// ClusterTick times one physics tick, per thousand nodes, on end: the
// cluster the workload left behind. When the workload's cluster is out of
// reach (a daemon's, a federation partition's) end is nil and the tick runs
// on a fresh cluster holding the sampled pods. It reports the median of
// three ticks.
func ClusterTick(in Inputs, end *cluster.Cluster) (msPerKNode float64, err error) {
	c := end
	if c == nil {
		c = cluster.New(in.Workload.Nodes, cluster.DefaultPhysics())
		nodes := len(in.Workload.Nodes)
		for i, p := range in.Pods {
			if _, err := c.Place(p, i%nodes, 0); err != nil {
				return 0, fmt.Errorf("probe: place: %w", err)
			}
		}
	}
	if len(c.Nodes()) == 0 {
		return 0, fmt.Errorf("probe: empty cluster")
	}
	var ms []float64
	// Far enough ahead that no pod placed at any virtual time the workload
	// reached starts in the future.
	t := int64(1) << 31
	for i := 0; i < 3; i++ {
		start := time.Now()
		c.Tick(t, float64(trace.SampleInterval))
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		t += trace.SampleInterval
	}
	sort.Float64s(ms)
	return ms[1] / (float64(len(c.Nodes())) / 1000), nil
}
