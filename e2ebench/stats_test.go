package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a workload or a metric: a letter
// or digit, then at most 63 letters, digits, '_', '.' and '-'.
func validName(s string) bool { return namePattern.MatchString(s) }

func TestQuantilesMatchPython(t *testing.T) {
	// Expected values from Python 3's statistics.quantiles(data, n=...).
	for _, c := range []struct {
		data []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, 4, []float64{1.5, 5, 9.25}},
		{[]float64{2, 1}, 4, []float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, 10, []float64{0.6, 1.2, 1.8, 2.4, 3, 3.6, 4.2, 4.8, 5.4}},
	} {
		got := quantiles(c.data, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v, %d) = %v, want %v", c.data, c.n, got, c.want)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("quantiles(%v, %d) = %v, want %v", c.data, c.n, got, c.want)
			}
		}
	}
}

func TestMedianAndP90(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := p90(xs); math.Abs(p-90.9) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, want 90.9", p)
	}
	if p := p90([]float64{7}); p != 7 {
		t.Fatalf("p90 of one value = %v", p)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"run_s", "dask.cpu_ms", "intransit-64", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := ""
	for len(long) < 65 {
		long += "x"
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ms{x}", "é", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func TestStealShare(t *testing.T) {
	a := cpuTicks{steal: 10, total: 1000}
	if s := stealShare(a, cpuTicks{steal: 30, total: 1200}); math.Abs(s-0.1) > 1e-12 {
		t.Fatalf("stealShare = %v, want 0.1", s)
	}
	if s := stealShare(a, a); s != 0 {
		t.Fatalf("stealShare with no ticks = %v", s)
	}
}

func TestNetWall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := samples{wall: []float64{2, 1, 4}, steal: []float64{0, 0.5, 0.1}}
	got := s.netWall()
	for i, want := range []float64{2, 0.25, 4 * 0.81} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("netWall = %v, want %v at %d", got, want, i)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json that names things.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checkNames fails unless got carries exactly the metrics of want, each
// with a valid name and the declared unit.
func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit, Better string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emits %d metrics, BENCHMARK.json declares %d: %v", what, len(got), len(want), sortedKeys(got))
	}
	for _, w := range want {
		if !validName(w.Name) {
			t.Errorf("%s: invalid metric name %q", what, w.Name)
		}
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s declared but not emitted", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %v", len(spec.Workloads), names)
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] || !validName(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
	}

	w, _ := findWorkload("intransit-64")
	b := &bench{w: w, attempted: 4, failed: 0, setup: samples{
		wall: []float64{0.1, 0.2, 0.3}, cpu: []float64{0.1, 0.1, 0.1}, steal: []float64{0, 0, 0}}}
	counts := map[string]float64{}
	phase := samples{
		wall: []float64{1, 2}, cpu: []float64{1, 1}, alloc: []float64{1, 1}, steal: []float64{0, 0},
		counts:  []map[string]float64{counts, counts},
		loopCPU: 2,
	}
	e2e := map[string]metric{}
	b.endToEnd(phase, e2e)
	checkNames(t, "end-to-end", e2e, spec.EndToEnd)

	perLayer := map[string]metric{}
	costs := layerCosts{cpu: map[string]float64{"dask": 2e9}, lock: map[string]float64{}, block: map[string]float64{}}
	if err := b.perLayer(phase, phase, costs, perLayer); err != nil {
		t.Fatal(err)
	}
	checkNames(t, "per-layer", perLayer, spec.PerLayer)
}
