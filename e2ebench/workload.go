package main

import (
	"fmt"
	"math"
	"strconv"

	"deisago/internal/harness"
	"deisago/internal/metrics"
	"deisago/internal/ml"
	"deisago/internal/ndarray"
	"deisago/internal/sim"
)

// workload is one fixed pipeline configuration the benchmark runs in a
// closed loop. Exactly one of single and multi is set.
type workload struct {
	name   string
	single *harness.Config
	multi  *harness.MultiJobConfig
}

// workloads lists the benchmark's workloads. All are fault-free, run 10
// timesteps and use the default model; README.md gives the rationale.
func workloads() []*workload {
	tenants := make([]harness.JobSpec, 8)
	for i := range tenants {
		tenants[i] = harness.JobSpec{
			Name:       "t" + strconv.Itoa(i),
			Weight:     float64(1 + i%3),
			Ranks:      8,
			Timesteps:  10,
			BlockBytes: 32 * harness.MiB,
		}
	}
	return []*workload{
		{
			name: "intransit-64",
			single: &harness.Config{System: harness.DEISA3, Ranks: 64, Workers: 32, Timesteps: 10,
				BlockBytes: 128 * harness.MiB, RealLocalX: 16, RealLocalY: 8},
		},
		{
			name: "posthoc-64",
			single: &harness.Config{System: harness.PostHocNewIPCA, Ranks: 64, Workers: 32, Timesteps: 10,
				BlockBytes: 128 * harness.MiB, RealLocalX: 16, RealLocalY: 8},
		},
		{
			name: "kernels-16",
			single: &harness.Config{System: harness.DEISA3, Ranks: 16, Workers: 8, Timesteps: 10,
				BlockBytes: 128 * harness.MiB, RealLocalX: 64, RealLocalY: 32},
		},
		{
			name:  "tenants-8",
			multi: &harness.MultiJobConfig{Jobs: tenants, Workers: 16},
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// spec is the part of a pipeline that fixes its analytics result: the
// serial reference depends on nothing else (the seed only moves nodes
// and link jitter).
type spec struct {
	ranks, timesteps, realX, realY, nComponents int
}

// jobs returns the name and spec of every pipeline in one run.
func (w *workload) jobs() ([]string, []spec) {
	nComp := harness.DefaultModel().NComponents
	if c := w.single; c != nil {
		x, y := realBlock(c.RealLocalX, c.RealLocalY)
		return []string{w.name}, []spec{{c.Ranks, c.Timesteps, x, y, nComp}}
	}
	x, y := realBlock(w.multi.RealLocalX, w.multi.RealLocalY)
	names := make([]string, len(w.multi.Jobs))
	specs := make([]spec, len(w.multi.Jobs))
	for i, j := range w.multi.Jobs {
		names[i] = j.Name
		specs[i] = spec{j.Ranks, j.Timesteps, x, y, nComp}
	}
	return names, specs
}

// realBlock applies the harness's default in-memory block of 16×8.
func realBlock(x, y int) (int, int) {
	if x == 0 {
		x = 16
	}
	if y == 0 {
		y = 8
	}
	return x, y
}

// blocks is the number of simulated blocks one run analyses: ranks ×
// timesteps, summed over pipelines.
func (w *workload) blocks() int {
	_, specs := w.jobs()
	n := 0
	for _, s := range specs {
		n += s.ranks * s.timesteps
	}
	return n
}

// jobOut is one pipeline's analytics output.
type jobOut struct {
	name        string
	components  *ndarray.Array
	singular    []float64
	fingerprint string
}

// outcome is the part of a harness result the benchmark checks and counts.
type outcome struct {
	jobs      []jobOut
	snap      *metrics.Snapshot
	multi     bool
	admitted  int64
	maxQueue  int64
	jain      float64
	makespan  float64 // virtual seconds, simulation side
	analytics float64 // virtual seconds, analytics side
}

// run executes one pipeline run through the harness's public entry.
func (w *workload) run(seed int64) (*outcome, error) {
	if w.single != nil {
		cfg := *w.single
		cfg.Seed = seed
		res, err := harness.Run(cfg)
		if err != nil {
			return nil, err
		}
		return &outcome{
			jobs:      []jobOut{{name: w.name, components: res.Components, singular: res.SingularValues}},
			snap:      res.Metrics,
			makespan:  res.SimMakespan,
			analytics: res.AnalyticsTime,
		}, nil
	}
	cfg := *w.multi
	cfg.Jobs = append([]harness.JobSpec(nil), cfg.Jobs...)
	cfg.Seed = seed
	res, err := harness.RunMultiJob(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		snap:     res.Metrics,
		multi:    true,
		admitted: res.Admission.Admitted,
		maxQueue: int64(res.Admission.MaxQueue),
		jain:     res.Jain,
	}
	for _, j := range res.Jobs {
		o.jobs = append(o.jobs, jobOut{j.Name, j.Components, j.SingularValues, j.Fingerprint})
		o.makespan = math.Max(o.makespan, j.SimMakespan)
		o.analytics = math.Max(o.analytics, j.AnalyticsTime)
	}
	return o, nil
}

// reference is the serial IPCA result a pipeline must reproduce.
type reference struct {
	components *ndarray.Array
	singular   []float64
}

// serialReference computes the expected IPCA result without the
// platform: the serial Heat2D field per step, folded to (Y × X) batches
// and fed to a local incremental PCA in the order the distributed
// drivers use. Each call into a layer is wrapped in a span.
func serialReference(s spec, tr *tracer) (reference, error) {
	heatCfg := sim.Config{
		GlobalX: s.realX,
		GlobalY: s.realY * s.ranks,
		ProcX:   1, ProcY: s.ranks,
		Alpha:    0.2,
		CellCost: 1e-12,
	}
	init := sim.HotSpotInitial(heatCfg)
	est := ml.NewIncrementalPCA(s.nComponents)
	for step := 1; step <= s.timesteps; step++ {
		end := tr.begin("sim.RunSerial", "step", step)
		u := sim.RunSerial(heatCfg, init, step)
		end()
		batch := ndarray.New(heatCfg.GlobalY, heatCfg.GlobalX)
		for y := 0; y < heatCfg.GlobalY; y++ {
			for x := 0; x < heatCfg.GlobalX; x++ {
				batch.Set(u.At(x, y), y, x)
			}
		}
		end = tr.begin("ml.PartialFit", "step", step)
		err := est.PartialFit(batch)
		end()
		if err != nil {
			return reference{}, fmt.Errorf("reference partial fit: %w", err)
		}
	}
	return reference{est.Components, est.SingularValues}, nil
}

// references computes one reference per distinct pipeline spec.
func (w *workload) references(tr *tracer) (map[spec]reference, error) {
	_, specs := w.jobs()
	refs := map[spec]reference{}
	for _, s := range specs {
		if _, ok := refs[s]; ok {
			continue
		}
		r, err := serialReference(s, tr)
		if err != nil {
			return nil, err
		}
		refs[s] = r
	}
	return refs, nil
}

// checker validates run outcomes against the serial references and
// against the first run's per-tenant fingerprints.
type checker struct {
	w            *workload
	refs         map[spec]reference
	fingerprints map[string]string
}

const tolerance = 1e-9

// check returns nil when o reproduces the reference on every pipeline,
// repeats the fingerprints of earlier runs, and its work counts are the
// ones the workload prescribes.
func (c *checker) check(o *outcome) error {
	names, specs := c.w.jobs()
	if len(o.jobs) != len(names) {
		return fmt.Errorf("got %d pipelines, want %d", len(o.jobs), len(names))
	}
	for i, j := range o.jobs {
		if j.name != names[i] {
			return fmt.Errorf("pipeline %d is %q, want %q", i, j.name, names[i])
		}
		ref := c.refs[specs[i]]
		if j.components == nil || !ndarray.AllClose(j.components, ref.components, tolerance) {
			return fmt.Errorf("%s: components differ from the serial reference", j.name)
		}
		if len(j.singular) != len(ref.singular) {
			return fmt.Errorf("%s: %d singular values, want %d", j.name, len(j.singular), len(ref.singular))
		}
		for k, sv := range ref.singular {
			if math.Abs(j.singular[k]-sv) > tolerance*(1+math.Abs(sv)) {
				return fmt.Errorf("%s: singular value %d is %v, want %v", j.name, k, j.singular[k], sv)
			}
		}
		if o.multi {
			if c.fingerprints == nil {
				c.fingerprints = map[string]string{}
			}
			if first, ok := c.fingerprints[j.name]; !ok {
				c.fingerprints[j.name] = j.fingerprint
			} else if first != j.fingerprint {
				return fmt.Errorf("%s: fingerprint %s differs from the first run's %s", j.name, j.fingerprint, first)
			}
		}
	}
	return c.w.assertCounts(extractCounts(o))
}
