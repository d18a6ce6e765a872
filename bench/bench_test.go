package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// The contract's limits on names and units, so that a bad edit of
// BENCHMARK.json fails here and not in front of the driver.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The bench re-executes its own binary for the HTTP floor probe's no-op
// server and for cold set-up samples; under `go test` that binary is the
// test binary, which hands those invocations to main.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if arg == "-noop-server" || arg == "-setup-only" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

func testManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMeetsTheContract(t *testing.T) {
	m := testManifest(t)
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's charset or length", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is listed but not implemented", w.Name)
		}
	}
	if len(workloads) != len(m.Workloads) {
		t.Errorf("%d workloads implemented, %d listed", len(workloads), len(m.Workloads))
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(m.EndToEnd), len(m.PerLayer))
	}
	setup := false
	for _, s := range m.EndToEnd {
		check("end-to-end metric", s.Name)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" {
			setup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric setup_s with unit "s" and better "lower"`)
	}
	for _, s := range m.PerLayer {
		check("per-layer metric", s.Name)
		if s.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", s.Name)
		}
	}
	for _, s := range append(append([]metricSpec(nil), m.EndToEnd...), m.PerLayer...) {
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q is outside the contract's charset or length", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", m.RunSeconds)
	}
	// 4 + 22 runs per workload, each the window plus set-up and checks
	// (measured at under 8 s on top of the window), and two builds must fit
	// in 3420 s.
	if total := (4+22*len(m.Workloads))*(m.RunSeconds+8) + 2*120; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over its 3420 s", total)
	}
	if info, err := os.Stat("../BENCHMARK.json"); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size over 64 KiB: %v", err, info != nil && info.Size() > 64<<10)
	}
}

// TestSmokeAllWorkloads runs every workload once, traced, at a fiftieth of
// its size: the whole path with every correctness check, the kill and
// restart of the daemon included. A traced run measures the end-to-end
// metrics as well, so one run per workload also ties BENCHMARK.json to the
// names the code emits, in both directions.
func TestSmokeAllWorkloads(t *testing.T) {
	m := testManifest(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, s := range m.PerLayer {
		listed[s.Name] = false
	}
	for _, name := range m.workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{Workload: name, Seed: 7, Seconds: 0.4, Traced: true, Scale: 0.02, Root: root, Work: t.TempDir()}
			tr := newTracer()
			r, err := workloads[name](cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				out := m.output(r, traced)
				if !out.Correct {
					t.Fatalf("incorrect (traced=%v): %v", traced, r.Problems)
				}
				if out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("attempted %d, failed %d", out.Attempted, out.Failed)
				}
			}
			for _, s := range m.EndToEnd {
				if v := r.Metrics[s.Name]; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive measurement", s.Name, v)
				}
			}
			for got := range r.Metrics {
				if _, ok := listed[got]; ok {
					listed[got] = true
				}
			}
			if probesBuilt {
				for _, n := range r.Notes {
					t.Log("note:", n)
				}
			}
			path, err := tr.write(t.TempDir(), name, cfg.Seed, name != "optum-replay", r.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			if info, err := os.Stat(path); err != nil || info.Size() == 0 {
				t.Errorf("trace file %s: %v", path, err)
			}
			if tr.count(spRound) == 0 {
				t.Error("the traced run recorded no round span")
			}
		})
	}
	var orphans []string
	for name, produced := range listed {
		if !produced {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 && !t.Failed() {
		t.Errorf("per-layer metrics listed in BENCHMARK.json that no workload produced: %v", orphans)
	}
}
