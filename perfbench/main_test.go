package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"laacad/internal/scenario"
)

// benchSpec is the part of BENCHMARK.json the tests check the output against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runShort runs one minimal run and returns its result line.
func runShort(t *testing.T, workload string, seed int64, trace int) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1", "--trace", fmt.Sprint(trace)}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok || m.Unit != w.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", workload, w.Name, m, w.Unit)
		}
	}
}

// exactMetrics are the work counts that must repeat exactly for one seed.
var exactMetrics = []string{
	"core.rounds_per_op", "core.regions_per_op", "wsn.msgs_per_op", "journal.appends_per_job",
	"service.events_per_job", "voronoi.neighbors_per_region", "voronoi.vertices_per_region",
}

// TestEveryMetricAndExactCounts runs every workload briefly: untraced it
// prints exactly the end-to-end metrics, traced exactly the per-layer ones,
// each with its unit; and two traced runs of one seed agree on every work
// count and on R*.
func TestEveryMetricAndExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		plain := runShort(t, w.name, 7, 0)
		checkMetrics(t, w.name, plain.Metrics, spec.EndToEnd)
		if plain.Metrics["r_star_km"].Value <= 0 {
			t.Errorf("%s: r_star_km = %v", w.name, plain.Metrics["r_star_km"].Value)
		}
		a := runShort(t, w.name, 7, 1)
		checkMetrics(t, w.name, a.Metrics, spec.PerLayer)
		b := runShort(t, w.name, 7, 1)
		for _, name := range exactMetrics {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between runs of one seed: %v vs %v", w.name, name, a.Metrics[name], b.Metrics[name])
			}
		}
		again := runShort(t, w.name, 7, 0)
		if plain.Metrics["r_star_km"] != again.Metrics["r_star_km"] {
			t.Errorf("%s: r_star_km differs between runs of one seed", w.name)
		}
	}
}

// TestSeedChangesInputs checks that a different seed gives every workload
// different inputs.
func TestSeedChangesInputs(t *testing.T) {
	initial := func(sc scenario.Scenario) any {
		reg, err := sc.BuildRegion()
		if err != nil {
			t.Fatal(err)
		}
		pos, err := sc.Initial(reg)
		if err != nil {
			t.Fatal(err)
		}
		return pos
	}
	if reflect.DeepEqual(initial(deployScenario(1, 0)), initial(deployScenario(2, 0))) {
		t.Error("deploy-1k: seeds 1 and 2 place the nodes alike")
	}
	if reflect.DeepEqual(initial(daemonSpec(1, 0).Scenario), initial(daemonSpec(2, 0).Scenario)) {
		t.Error("daemon-jobs: seeds 1 and 2 place the nodes alike")
	}
	sc, err := scenario.Lookup("square1km-localized")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := sc.BuildRegion()
	if err != nil {
		t.Fatal(err)
	}
	pos, err := sc.Initial(reg)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := &heal{seed: 1, reg: reg}, &heal{seed: 2, reg: reg}
	if reflect.DeepEqual(h1.victims(pos, 0), h2.victims(pos, 0)) {
		t.Error("heal-10k: seeds 1 and 2 fail the same nodes")
	}
	if reflect.DeepEqual(h1.victims(pos, 0), h1.victims(pos, 1)) {
		t.Error("heal-10k: ops 0 and 1 fail the same nodes")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{4, 50}, {25, 60}, {40, 75}, {100, 90}, {1000, 99}, {1200, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := tr.open("bench.op", 0, -1, at(0))
	tr.record("core.step", 0, root, at(100), at(400))
	tr.record("core.step", 0, root, at(300), at(600)) // overlaps the first
	tr.close(root, at(1000))
	self := tr.selfMS()
	if got, want := self["bench"], 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("bench self = %v ms, want %v", got, want)
	}
	if got, want := self["core"], 0.6; math.Abs(got-want) > 1e-9 {
		t.Errorf("core self = %v ms, want %v", got, want)
	}
}
