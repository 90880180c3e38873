// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload in a closed loop through the harness's public entries
// (harness.Run, harness.RunMultiJob), one run at a time, checks every
// run against a serial reference, and prints the metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced phase profiles the runs and reports per-layer costs.
// README.md lists the workloads and what each metric measures.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A process sets up at least minSetups times, and more while the
// set-ups have taken less than setupBudget, up to maxSetups; setup_s is
// their median. Cheap set-ups repeat more, so their median steadies.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 3 * time.Second
)

// minRuns is the fewest timed runs a phase makes, however long they take.
const minRuns = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" for every workload in turn")
	seed := fs.Int64("seed", 1, "seed of every run's node allocation and link jitter")
	seconds := fs.Float64("seconds", 20, "seconds to measure for")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{w: w, seed: *seed, stderr: stderr}
	if *trace == 1 {
		b.tr = newTracer()
	}
	res, rec, err := b.measure(time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if *trace == 1 {
		if err := b.tr.writeFile(filepath.Join(".bench_build", "e2ebench", "spans-"+w.name+".json")); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// bench runs one workload and accumulates its samples.
type bench struct {
	w      *workload
	seed   int64
	tr     *tracer // nil when untraced
	stderr io.Writer
	check  *checker
	runID  int

	attempted, failed int
	setup             samples // wall, CPU and steal of each set-up
}

// samples are per-run measurements, of one timed phase or of the set-ups.
type samples struct {
	wall, cpu, alloc, steal []float64            // seconds, seconds, bytes, share
	counts                  []map[string]float64 // work counts per run
	runtime                 runtimeDelta         // over the whole phase
	loopCPU                 float64              // process CPU seconds over the whole phase
}

// record is the line printed before the result: the environment and the
// wall and CPU time of each set-up and each untraced run, so noisy
// samples can be spotted. Steal and SetupSteal are the host's stolen
// share of CPU time during each run and each set-up.
type record struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Env        environment `json:"env"`
	SetupS     []float64   `json:"setup_s"`
	SetupCPUS  []float64   `json:"setup_cpu_s"`
	SetupSteal []float64   `json:"setup_steal"`
	Runs       int         `json:"runs"`
	WallS      []float64   `json:"wall_s"`
	CPUS       []float64   `json:"cpu_s"`
	Steal      []float64   `json:"steal"`
}

// measure sets up, runs the untraced timed loop for d (half of d when
// traced, the traced phase taking the other half) and derives the metrics.
// The result is correct only when every run passed its check and, when
// traced, the profiles passed their self-check.
func (b *bench) measure(d time.Duration, traced bool) (*result, *record, error) {
	for t0 := time.Now(); len(b.setup.wall) < minSetups ||
		(len(b.setup.wall) < maxSetups && time.Since(t0) < setupBudget); {
		if err := b.setUp(); err != nil {
			return nil, nil, err
		}
	}
	if traced {
		d /= 2
	}
	plain := b.loop(d, nil)
	rec := &record{b.w.name, b.seed, readEnvironment(), b.setup.wall, b.setup.cpu, b.setup.steal, len(plain.wall), plain.wall, plain.cpu, plain.steal}
	m := map[string]metric{}
	ok := len(plain.wall) > 0
	switch {
	case ok && !traced:
		b.endToEnd(plain, m)
	case ok:
		prof := startProfiles()
		tracedS := b.loop(d, b.tr)
		costs, err := prof.stop()
		if err != nil {
			return nil, nil, err
		}
		ok = len(tracedS.wall) > 0
		if ok {
			if err := b.perLayer(plain, tracedS, costs, m); err != nil {
				fmt.Fprintln(b.stderr, "e2ebench: self-check:", err)
				ok = false
			}
		}
	}
	return &result{Correct: ok && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, rec, nil
}

// setUp computes the serial references and makes one checked warm-up run.
func (b *bench) setUp() error {
	tk0, _ := readCPUTicks()
	c0, t0 := cpuTime(), time.Now()
	end := b.tr.begin("setup", "workload", b.w.name)
	refs, err := b.w.references(b.tr)
	if err != nil {
		return err
	}
	b.check = &checker{w: b.w, refs: refs}
	b.attempted++
	o, err := b.runOnce(b.tr)
	if err == nil {
		err = b.check.check(o)
	}
	if err != nil {
		b.failed++
		fmt.Fprintln(b.stderr, "e2ebench: warm-up run:", err)
	}
	end()
	wall, cpu := time.Since(t0), cpuTime()-c0
	tk1, _ := readCPUTicks()
	b.setup.wall = append(b.setup.wall, wall.Seconds())
	b.setup.cpu = append(b.setup.cpu, cpu.Seconds())
	b.setup.steal = append(b.setup.steal, stealShare(tk0, tk1))
	return nil
}

// runOnce makes one run, in a span when tr is not nil.
func (b *bench) runOnce(tr *tracer) (*outcome, error) {
	b.runID++
	api := "harness.Run"
	if b.w.multi != nil {
		api = "harness.RunMultiJob"
	}
	end := tr.begin(api, "run", b.runID, "seed", b.seed)
	defer end()
	return b.w.run(b.seed)
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() float64 {
	metrics.Read(allocMetric)
	return float64(allocMetric[0].Value.Uint64())
}

// loop runs the workload for at least d and minRuns runs, checking each
// run outside its timing. A run that errs or fails its check counts as
// failed and adds no sample.
func (b *bench) loop(d time.Duration, tr *tracer) samples {
	var s samples
	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	for n := 0; n < minRuns || time.Since(start) < d; n++ {
		tk0, _ := readCPUTicks()
		a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
		o, err := b.runOnce(tr)
		wall, cpu, alloc := time.Since(t0), cpuTime()-c0, heapAllocs()-a0
		tk1, _ := readCPUTicks()
		b.attempted++
		if err == nil {
			err = b.check.check(o)
		}
		if err != nil {
			b.failed++
			fmt.Fprintf(b.stderr, "e2ebench: run %d: %v\n", b.runID, err)
			continue
		}
		s.wall = append(s.wall, wall.Seconds())
		s.cpu = append(s.cpu, cpu.Seconds())
		s.alloc = append(s.alloc, alloc)
		s.steal = append(s.steal, stealShare(tk0, tk1))
		s.counts = append(s.counts, extractCounts(o))
	}
	s.runtime = readRuntime().sub(rt0)
	s.loopCPU = (cpuTime() - cpu0).Seconds()
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEnd derives the end-to-end metrics of an untraced phase. Wall
// times are net of host steal.
func (b *bench) endToEnd(s samples, m map[string]metric) {
	n := float64(len(s.wall))
	net := s.netWall()
	m["cpu_s_per_run"] = metric{sum(s.cpu) / n, "s"}
	m["run_s"] = metric{median(net), "s"}
	m["blocks_per_s"] = metric{float64(b.w.blocks()) * n / sum(net), "1/s"}
	m["alloc_mb_per_run"] = metric{sum(s.alloc) / n / mib, "MiB"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	m["setup_s"] = metric{median(b.setup.netWall()), "s"}
	m["pass_share"] = metric{float64(b.attempted-b.failed) / float64(b.attempted), "share"}
}

// runAll runs every workload in its own child process, one after the
// other, forwarding their output, and ends with one combined line whose
// metric names carry the workload as a prefix.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads() {
		childArgs := append(append([]string(nil), args...), "--workload", w.name)
		res, err := runChild(exe, childArgs, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	if err := json.NewEncoder(stdout).Encode(total); err != nil {
		return 1
	}
	return 0
}

// runChild runs the benchmark binary with args, forwards its output and
// returns its last line's result.
func runChild(exe string, args []string, stdout, stderr io.Writer) (*result, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(&out, stdout)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
