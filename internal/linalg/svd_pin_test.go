package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"deisago/internal/ndarray"
)

// digestBits hashes the IEEE-754 bit patterns of the given vectors in
// order, so any change in any bit of any value changes the digest.
func digestBits(vecs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ipcaStack returns a (k+n+1)×f matrix shaped like one kernels-16
// IncrementalPCA partial_fit stack (k=2, n=512, f=64): rank-deficient,
// with 50 of its 64 columns exactly zero, as the explicit Heat2D stencil
// leaves most centred X-columns.
func ipcaStack(rng *rand.Rand) *ndarray.Array {
	const rows, f, live, rank = 515, 64, 14, 6
	left := randMat(rng, rows, rank)
	right := randMat(rng, rank, live)
	dense := ndarray.MatMul(left, right)
	a := ndarray.New(rows, f)
	ad, dd := a.Data(), dense.Data()
	for i := 0; i < rows; i++ {
		for j := 0; j < live; j++ {
			// Spread the live columns across the feature range.
			ad[i*f+(j*f)/live+1] = dd[i*live+j]
		}
	}
	return a
}

type svdInput struct {
	name string
	a    *ndarray.Array
}

// svdPinInputs are the seeded matrices whose SVD bits are pinned: each
// exercises a different branch of the Jacobi kernel (tall tournament
// with fan-out, the wide transposed path, rank deficiency, zero columns
// that never rotate, and non-finite or overflowing inputs that must
// propagate exactly as computed).
func svdPinInputs() []svdInput {
	rng := rand.New(rand.NewSource(131))
	tall := randMat(rng, 200, 96)
	wide := randMat(rng, 48, 130)
	rankDef := ndarray.MatMul(randMat(rng, 120, 5), randMat(rng, 5, 40))
	zeroCols := ipcaStack(rng)
	nan := randMat(rng, 30, 12)
	overflow := randMat(rng, 25, 9)
	nd, od := nan.Data(), overflow.Data()
	for i := 0; i < 30; i++ {
		nd[i*12+3] = 0
	}
	nd[5*12+7] = math.NaN()
	// Finite entries whose squares overflow: column norms become +Inf.
	for i := 0; i < 25; i++ {
		od[i*9+4] = 0
		for j := 0; j < 9; j += 3 {
			od[i*9+j] *= 1e200
		}
	}
	return []svdInput{
		{"tall", tall}, {"wide", wide}, {"rankdef", rankDef},
		{"zerocols", zeroCols}, {"nan", nan}, {"overflow", overflow},
	}
}

// svdPins holds the sha256 of SVD's U, s and V bits per input. The
// values depend on the platform's floating-point contraction rules
// (arm64 and others fuse multiply-adds), so they are recorded per
// GOARCH.
var svdPins = map[string]map[string]string{
	"amd64": {
		"tall":     "77f5c7984078645f99e8a3592997f044656eeae5b9fbb59370798bf59811c376",
		"wide":     "66dfe73c9cab8492214a7591244367823240eb2352be5d4e4522e009f673ee4e",
		"rankdef":  "a4aa345b9f66e8da46d653a55eaa3f9a870da063a608b8cdc37208ecca4ca583",
		"zerocols": "fd9c80fa67dd711ccbb905a81d29c9abde2b935556cf87a9233e24cb3dc50d46",
		"nan":      "d0598e9677d17553fffd1cb49aaa4285c7f65ebc8d6d8b79217883c33e13adaa",
		"overflow": "9fe100405f51888285f975e27dc3a2a0ca6f7587ff3eadb47c5507d296fe1566",
	},
}

// TestSVDBitsPinned pins every bit of SVD's output on seeded inputs, so
// a kernel rewrite cannot drift the analytics by even one ulp.
func TestSVDBitsPinned(t *testing.T) {
	pins, ok := svdPins[runtime.GOARCH]
	if !ok {
		t.Skip("SVD bit digests are recorded for amd64 only")
	}
	for _, in := range svdPinInputs() {
		u, s, v := SVD(in.a)
		got := digestBits(u.Data(), s, v.Data())
		if got != pins[in.name] {
			t.Errorf("%s: SVD bits digest %s, want %s", in.name, got, pins[in.name])
		}
	}
}
