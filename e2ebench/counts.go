package main

import (
	"fmt"
	"strings"
)

// counts lists the per-run work counts extractCounts reports, with
// their units, in output order. They are exact for a fixed (workload,
// seed), except the virtual-time quantities (queue waits, utilization,
// fairness, makespans), which follow goroutine arrival order.
var counts = []struct{ name, unit string }{
	{"dask.tasks", "count"}, {"dask.transitions", "count"}, {"dask.scheduler_msgs", "count"},
	{"dask.external_tasks", "count"}, {"dask.worker_tasks", "count"}, {"dask.sched_util", "share"},
	{"dask.jain_fairness", "share"},
	{"core.blocks_shipped", "count"}, {"core.shipped_mb", "MiB"}, {"core.publish_retries", "count"},
	{"core.blocks_filtered", "count"},
	{"netsim.transfers", "count"}, {"netsim.mb", "MiB"}, {"netsim.dropped", "count"},
	{"netsim.queue_wait_p95_ms", "ms"},
	{"pfs.mb", "MiB"}, {"pfs.mds_ops", "count"},
	{"multijob.admitted", "count"}, {"multijob.max_queue", "count"},
	{"vtime.sim_makespan_s", "s"}, {"vtime.analytics_s", "s"},
}

const mib = 1 << 20

// extractCounts reads one run's work counts from its result and metrics
// snapshot.
func extractCounts(o *outcome) map[string]float64 {
	s := o.snap
	sum := func(prefix string) float64 { return float64(s.SumCounters(prefix)) }
	// The p95 of the slowest link: per-link histograms are summarized,
	// so a fabric-wide percentile cannot be rebuilt from the snapshot.
	var p95 float64
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.ID, "link/queue_wait") && h.P95 > p95 {
			p95 = h.P95
		}
	}
	return map[string]float64{
		"dask.tasks":               sum("dask/tasks_registered"),
		"dask.transitions":         sum("scheduler/transitions"),
		"dask.scheduler_msgs":      sum("dask/total_scheduler_msgs"),
		"dask.external_tasks":      sum("dask/external_created"),
		"dask.worker_tasks":        sum("worker/tasks_executed"),
		"dask.sched_util":          s.Gauge("scheduler/cpu_utilization"),
		"dask.jain_fairness":       o.jain,
		"core.blocks_shipped":      sum("bridge/blocks_shipped"),
		"core.shipped_mb":          sum("bridge/shipped_bytes") / mib,
		"core.publish_retries":     sum("bridge/retries"),
		"core.blocks_filtered":     sum("bridge/blocks_filtered"),
		"netsim.transfers":         sum("fabric/transfers"),
		"netsim.mb":                sum("fabric/bytes") / mib,
		"netsim.dropped":           sum("fabric/dropped"),
		"netsim.queue_wait_p95_ms": p95 * 1e3,
		"pfs.mb":                   sum("pfs/bytes") / mib,
		"pfs.mds_ops":              sum("pfs/mds_ops"),
		"multijob.admitted":        float64(o.admitted),
		"multijob.max_queue":       float64(o.maxQueue),
		"vtime.sim_makespan_s":     o.makespan,
		"vtime.analytics_s":        o.analytics,
	}
}

// assertCounts proves a run did the work its workload describes: every
// block shipped as exactly one external task on the in-transit
// workloads, PFS traffic on the post hoc one only, every tenant admitted.
func (w *workload) assertCounts(c map[string]float64) error {
	blocks := float64(w.blocks())
	inTransit := w.multi != nil || w.single.System.InTransit()
	var errs []string
	want := func(name string, ok bool, cond string) {
		if !ok {
			errs = append(errs, fmt.Sprintf("%s = %v, want %s", name, c[name], cond))
		}
	}
	if inTransit {
		want("core.blocks_shipped", c["core.blocks_shipped"] == blocks, fmt.Sprint(blocks))
		want("dask.external_tasks", c["dask.external_tasks"] == blocks, fmt.Sprint(blocks))
		want("pfs.mb", c["pfs.mb"] == 0, "0")
		want("pfs.mds_ops", c["pfs.mds_ops"] == 0, "0")
	} else {
		want("core.blocks_shipped", c["core.blocks_shipped"] == 0, "0")
		want("dask.external_tasks", c["dask.external_tasks"] == 0, "0")
		want("pfs.mb", c["pfs.mb"] > 0, "> 0")
		want("pfs.mds_ops", c["pfs.mds_ops"] > 0, "> 0")
	}
	want("core.blocks_filtered", c["core.blocks_filtered"] == 0, "0")
	want("netsim.dropped", c["netsim.dropped"] == 0, "0")
	if w.multi != nil {
		n := float64(len(w.multi.Jobs))
		want("multijob.admitted", c["multijob.admitted"] == n, fmt.Sprint(n))
	} else {
		want("multijob.admitted", c["multijob.admitted"] == 0, "0")
	}
	if len(errs) > 0 {
		return fmt.Errorf("work counts: %s", strings.Join(errs, "; "))
	}
	return nil
}
