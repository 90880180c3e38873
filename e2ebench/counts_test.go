package main

import (
	"strings"
	"testing"

	"deisago/internal/harness"
)

// tinyWorkloads are scaled-down twins of the benchmark's workloads, one
// per driver path.
func tinyWorkloads() []*workload {
	return []*workload{
		{name: "tiny-intransit", single: &harness.Config{System: harness.DEISA3,
			Ranks: 2, Workers: 2, Timesteps: 3, BlockBytes: harness.MiB}},
		{name: "tiny-posthoc", single: &harness.Config{System: harness.PostHocNewIPCA,
			Ranks: 2, Workers: 2, Timesteps: 3, BlockBytes: harness.MiB}},
		{name: "tiny-tenants", multi: &harness.MultiJobConfig{Workers: 2, Jobs: []harness.JobSpec{
			{Name: "a", Weight: 1, Ranks: 2, Timesteps: 3, BlockBytes: harness.MiB},
			{Name: "b", Weight: 2, Ranks: 3, Timesteps: 2, BlockBytes: harness.MiB},
		}}},
	}
}

func setUpTiny(t *testing.T, w *workload) *checker {
	t.Helper()
	refs, err := w.references(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &checker{w: w, refs: refs}
}

func TestCountsOnTinyConfigs(t *testing.T) {
	for _, w := range tinyWorkloads() {
		c := setUpTiny(t, w)
		o, err := w.run(3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := c.check(o); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got := extractCounts(o)
		if len(got) != len(counts) {
			t.Fatalf("%s: %d counts, want %d", w.name, len(got), len(counts))
		}
		for _, cn := range counts {
			if _, ok := got[cn.name]; !ok || !validName(cn.name) {
				t.Fatalf("%s: count %q missing or invalid", w.name, cn.name)
			}
		}
		blocks := float64(w.blocks())
		switch w.name {
		case "tiny-intransit":
			if blocks != 6 || got["core.blocks_shipped"] != 6 || got["dask.external_tasks"] != 6 {
				t.Fatalf("%s: blocks %v, counts %v", w.name, blocks, got)
			}
		case "tiny-posthoc":
			if got["pfs.mb"] <= 0 || got["pfs.mds_ops"] <= 0 || got["core.blocks_shipped"] != 0 {
				t.Fatalf("%s: counts %v", w.name, got)
			}
		case "tiny-tenants":
			if blocks != 12 || got["core.blocks_shipped"] != 12 || got["multijob.admitted"] != 2 {
				t.Fatalf("%s: blocks %v, counts %v", w.name, blocks, got)
			}
			if got["dask.jain_fairness"] <= 0 {
				t.Fatalf("%s: no fairness index: %v", w.name, got)
			}
		}
		if got["dask.tasks"] <= 0 || got["dask.worker_tasks"] <= 0 || got["vtime.analytics_s"] <= 0 {
			t.Fatalf("%s: empty work counts %v", w.name, got)
		}
	}
}

func TestAssertCountsRejectsWrongWork(t *testing.T) {
	w := tinyWorkloads()[0]
	o, err := w.run(1)
	if err != nil {
		t.Fatal(err)
	}
	c := extractCounts(o)
	c["dask.external_tasks"]--
	c["pfs.mb"] = 1
	err = w.assertCounts(c)
	if err == nil || !strings.Contains(err.Error(), "dask.external_tasks") || !strings.Contains(err.Error(), "pfs.mb") {
		t.Fatalf("assertCounts = %v, want both violations named", err)
	}
}

func TestCheckRejectsWrongResults(t *testing.T) {
	for _, w := range tinyWorkloads() {
		c := setUpTiny(t, w)
		o, err := w.run(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(o); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		o.jobs[0].components.Data()[0] += 1e-6
		if err := c.check(o); err == nil || !strings.Contains(err.Error(), "components") {
			t.Fatalf("%s: perturbed components accepted: %v", w.name, err)
		}
	}
	w := tinyWorkloads()[2]
	c := setUpTiny(t, w)
	o, err := w.run(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(o); err != nil {
		t.Fatal(err)
	}
	o.jobs[1].fingerprint = "changed"
	if err := c.check(o); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("changed fingerprint accepted: %v", err)
	}
}
