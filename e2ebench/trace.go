package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// layers are the repository modules on the benchmark path; go_runtime
// takes profile samples with no repository frame. chaos and simtest are
// absent: every workload is fault-free.
var layers = []string{
	"harness", "sim", "mpi", "netsim", "cluster", "pdi", "core", "dask", "taskgraph",
	"array", "ml", "linalg", "ndarray", "vtime", "pfs", "h5", "metrics", "multijob",
	runtimeBucket,
}

// span is one call the benchmark made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	args       []any         // key, value pairs
}

// tracer keeps the benchmark's spans in memory. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; calling the returned function closes it.
func (t *tracer) begin(name string, args ...any) func() {
	if t == nil {
		return func() {}
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), args: args})
	return func() { t.spans[i].end = time.Since(t.t0) }
}

// writeFile writes the spans as Chrome trace-event JSON.
func (t *tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{}
		for k := 0; k+1 < len(s.args); k += 2 {
			args[fmt.Sprint(s.args[k])] = s.args[k+1]
		}
		events[i] = event{s.name, "X", float64(s.start) / 1e3, float64(s.end-s.start) / 1e3, 1, 1, args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// runtimeDelta is the Go runtime's own accounting over a phase.
type runtimeDelta struct {
	gcCPU, busyCPU, mutexWait float64 // seconds
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/sync/mutex/wait/total:seconds"},
}

func readRuntime() runtimeDelta {
	metrics.Read(runtimeMetrics)
	f := func(i int) float64 {
		if runtimeMetrics[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return runtimeMetrics[i].Value.Float64()
	}
	return runtimeDelta{gcCPU: f(0), busyCPU: f(1) - f(2), mutexWait: f(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU, a.mutexWait - b.mutexWait}
}

// profiles collects the CPU, mutex and block profiles of a traced phase.
type profiles struct {
	cpu bytes.Buffer
	err error
}

// startProfiles turns on every profile: CPU at the default 100 Hz, and
// every mutex contention and blocking event.
func startProfiles() *profiles {
	p := &profiles{}
	runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(1)
	p.err = pprof.StartCPUProfile(&p.cpu)
	return p
}

// layerCosts is per-layer nanoseconds from each profile.
type layerCosts struct {
	cpu, lock, block map[string]float64
}

// stop ends the profiles and attributes each to the layers.
func (p *profiles) stop() (layerCosts, error) {
	pprof.StopCPUProfile()
	var lock, block bytes.Buffer
	errs := []error{p.err,
		pprof.Lookup("mutex").WriteTo(&lock, 0),
		pprof.Lookup("block").WriteTo(&block, 0)}
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
	if err := errors.Join(errs...); err != nil {
		return layerCosts{}, fmt.Errorf("profiles: %w", err)
	}
	var c layerCosts
	for _, x := range []struct {
		data []byte
		dst  *map[string]float64
	}{{p.cpu.Bytes(), &c.cpu}, {lock.Bytes(), &c.lock}, {block.Bytes(), &c.block}} {
		prof, err := parseProfile(x.data)
		if err != nil {
			return layerCosts{}, err
		}
		if *x.dst, err = prof.attribute(); err != nil {
			return layerCosts{}, err
		}
	}
	return c, nil
}

// cpuSelfCheckTolerance bounds how far the profile's CPU total may stray
// from the process's own CPU time over the traced phase.
const cpuSelfCheckTolerance = 0.10

// perLayer derives the per-layer metrics from an untraced phase and the
// traced phase that followed it. It fails when the CPU profile does not
// account for the traced phase's CPU time within the tolerance.
func (b *bench) perLayer(plain, traced samples, costs layerCosts, m map[string]metric) error {
	n := float64(len(traced.wall))
	var cpuSum float64
	for _, l := range layers {
		cpu := costs.cpu[l] / n / 1e6
		cpuSum += cpu
		m[l+".cpu_ms"] = metric{cpu, "ms"}
		m[l+".lock_wait_ms"] = metric{costs.lock[l] / n / 1e6, "ms"}
		m[l+".block_wait_ms"] = metric{costs.block[l] / n / 1e6, "ms"}
	}
	np := float64(len(plain.wall))
	rt := plain.runtime
	gcShare := 0.0
	if rt.busyCPU > 0 {
		gcShare = rt.gcCPU / rt.busyCPU
	}
	m["go_runtime.gc_cpu_share"] = metric{gcShare, "share"}
	m["go_runtime.mutex_wait_s"] = metric{rt.mutexWait / np, "s"}

	all := append(append([]map[string]float64(nil), plain.counts...), traced.counts...)
	for _, c := range counts {
		v := 0.0
		for _, run := range all {
			v += run[c.name]
		}
		m[c.name] = metric{v / float64(len(all)), c.unit}
	}
	analytics := make([]float64, len(all))
	for i, c := range all {
		analytics[i] = c["vtime.analytics_s"]
	}
	spread := 0.0
	if med := median(analytics); med > 0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, a := range analytics {
			lo, hi = math.Min(lo, a), math.Max(hi, a)
		}
		spread = (hi - lo) / med
	}
	m["vtime.analytics_spread"] = metric{spread, "share"}
	plainNet := plain.netWall()
	m["harness.run_s_p90"] = metric{p90(plainNet), "s"}
	m["harness.trace_overhead"] = metric{median(traced.netWall())/median(plainNet) - 1, "share"}

	cpuPerRun := traced.loopCPU / n * 1e3
	share := cpuSum / cpuPerRun
	m["harness.cpu_attributed_share"] = metric{share, "share"}
	if math.Abs(share-1) > cpuSelfCheckTolerance {
		return fmt.Errorf("layers' CPU %.1f ms/run is %.3f of the traced phase's %.1f ms/run", cpuSum, share, cpuPerRun)
	}
	return nil
}
