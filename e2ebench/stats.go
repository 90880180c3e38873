package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantiles returns the n-1 cut points dividing xs into n groups, by the
// method of Python's statistics.quantiles (the default, "exclusive"), so
// spreads computed here and by Python tools agree. It needs len(xs) >= 2.
func quantiles(xs []float64, n int) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out = append(out, (d[j-1]*(float64(n)-delta)+d[j]*delta)/float64(n))
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	k := len(d) / 2
	if len(d)%2 == 1 {
		return d[k]
	}
	return (d[k-1] + d[k]) / 2
}

// p90 returns the 90th percentile of xs, or its only value.
func p90(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	return quantiles(xs, 10)[8]
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTicks is the host-wide CPU time from /proc/stat, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat; ok is false
// where the file is missing or unreadable.
func readCPUTicks() (t cpuTicks, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return t, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return t, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so stop at steal.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings, or 0 when no ticks elapsed.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// netWall returns each sample's wall time without the host's stolen
// time. A run's goroutines wait on one another, so it advances at full
// speed only while all GOMAXPROCS processors are on a CPU; with each
// stolen a share s of the time, independently, that is (1-s)^GOMAXPROCS
// of its wall time.
func (s samples) netWall() []float64 {
	p := float64(runtime.GOMAXPROCS(0))
	out := make([]float64, len(s.wall))
	for i, w := range s.wall {
		out[i] = w * math.Pow(1-s.steal[i], p)
	}
	return out
}

// environment describes the machine a result was measured on.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	e := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
