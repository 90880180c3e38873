package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"testing"
)

// pb is a minimal protobuf writer for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(field, q)
}

// syntheticProfile builds a two-value (contentions, delay) profile whose
// stacks exercise each attribution rule. Function ids index fns.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "contentions", "count", "delay", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	fns := []string{
		"runtime.mallocgc",                                // 1
		"deisago/internal/ndarray.(*Array).Copy",          // 2
		"deisago/internal/linalg.SVD",                     // 3
		"main.(*bench).loop",                              // 4
		"runtime.gcBgMarkWorker",                          // 5
		"deisago/internal/dask.(*scheduler).assignLocked", // 6
		"sync.(*Mutex).Unlock",                            // 7
		"deisago/internal/metrics.(*rcuMap[...]).get",     // 8
	}
	var p pb
	for _, st := range [][2]string{{"contentions", "count"}, {"delay", "nanoseconds"}} {
		var vt pb
		vt.varint(1, str(st[0]))
		vt.varint(2, str(st[1]))
		p.bytes(1, vt.b)
	}
	// Samples: leaf-first location ids, values (count, ns).
	for _, s := range []struct {
		locs []uint64
		ns   uint64
		pack bool
	}{
		{[]uint64{1, 2, 3}, 100, true}, // runtime folds into ndarray, not linalg
		{[]uint64{5}, 20, true},        // no repository frame: go_runtime
		{[]uint64{1, 4}, 7, false},     // benchmark's own frame only: go_runtime
		{[]uint64{7, 6}, 50, true},     // unlocker stack in dask
		{[]uint64{9}, 3, false},        // inlined metrics inside dask: metrics
	} {
		var sp pb
		if s.pack {
			sp.packed(1, s.locs...)
			sp.packed(2, 1, s.ns)
		} else {
			for _, l := range s.locs {
				sp.varint(1, l)
			}
			sp.varint(2, 1)
			sp.varint(2, s.ns)
		}
		p.bytes(2, sp.b)
	}
	// Locations 1..8 hold function i; location 9 inlines metrics into dask.
	for i := range fns {
		var loc, line pb
		loc.varint(1, uint64(i+1))
		line.varint(1, uint64(i+1))
		loc.bytes(4, line.b)
		p.bytes(4, loc.b)
	}
	var loc9 pb
	loc9.varint(1, 9)
	for _, f := range []uint64{8, 6} {
		var line pb
		line.varint(1, f)
		loc9.bytes(4, line.b)
	}
	p.bytes(4, loc9.b)
	for i, name := range fns {
		var fn pb
		fn.varint(1, uint64(i+1))
		fn.varint(2, str(name))
		p.bytes(5, fn.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSynthetic(t *testing.T) {
	p, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.attribute()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ndarray": 100, runtimeBucket: 27, "dask": 50, "metrics": 3}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("attribute = %v, want %v", got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"deisago/internal/dask.(*Cluster).Submit":        "dask",
		"deisago/internal/vtime.Time.Add":                "vtime",
		"deisago/internal/harness.runInTransit.func3":    "harness",
		"deisago/internal/metrics.(*rcuMap[go.shape]).x": "metrics",
		"deisago/e2ebench.main":                          "",
		"main.main":                                      "",
		"runtime.mallocgc":                               "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0x0a, 0x05, 1}, {0xff}, {0x1f, 0x8b, 0}} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(%x) accepted garbage", data)
		}
	}
}

// testdata/kernels16.cpu.pprof is a CPU profile recorded by this
// benchmark over two kernels-16 runs (GOMAXPROCS=2).
func TestAttributeRecordedProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/kernels16.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sampleUnits) != 2 || p.sampleUnits[1] != "nanoseconds" {
		t.Fatalf("sample units %v", p.sampleUnits)
	}
	var total float64
	for _, s := range p.samples {
		total += float64(s.values[1])
	}
	got, err := p.attribute()
	if err != nil {
		t.Fatal(err)
	}
	var attributed float64
	for l, v := range got {
		attributed += v
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("samples attributed to %q, which is no benchmark layer", l)
		}
	}
	if math.Abs(attributed-total) > 1e-6*total {
		t.Fatalf("attributed %v ns of %v", attributed, total)
	}
	kernels := got["ml"] + got["linalg"] + got["ndarray"]
	if kernels < 0.5*total {
		t.Fatalf("kernels-16: ml+linalg+ndarray %.0f%% of CPU, want the majority (%v)", 100*kernels/total, got)
	}
	for _, l := range []string{"harness", "sim", "mpi", "netsim", runtimeBucket} {
		if got[l] <= 0 {
			t.Errorf("kernels-16: no samples attributed to %s: %v", l, got)
		}
	}
}
