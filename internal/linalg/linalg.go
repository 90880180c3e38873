// Package linalg provides the dense linear algebra needed by the ML stack:
// Householder QR and a one-sided Jacobi singular value decomposition. In
// the original system this role is filled by LAPACK via NumPy/scikit-learn;
// here it is implemented from scratch on ndarray so the whole repository
// is stdlib-only.
package linalg

import (
	"fmt"
	"math"
	"sync/atomic"

	"deisago/internal/ndarray"
)

// jacobiRotate applies one one-sided Jacobi rotation to the columns up
// and uq of A (and the matching columns vp, vq of the accumulator V),
// returning whether a rotation was performed. Each column is a
// contiguous slice, so both passes are unit-stride walks. It reads and
// writes only those columns, so rotations on disjoint pairs commute
// exactly and may run concurrently.
func jacobiRotate(up, uq, vp, vq []float64, tol float64) bool {
	uq = uq[:len(up)]
	var app, aqq, apq float64
	for i, x := range up {
		y := uq[i]
		app += x * x
		aqq += y * y
		apq += x * y
	}
	if math.Abs(apq) <= tol*math.Sqrt(app*aqq) || apq == 0 {
		return false
	}
	// Jacobi rotation that zeroes the (p,q) entry of AᵀA.
	tau := (aqq - app) / (2 * apq)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	sn := c * t
	// The sums below commute exactly for every non-NaN value. Only the
	// NaN an x86 ADDSD returns depends on operand order (the first
	// operand's), and this order keeps the NaN signs TestSVDBitsPinned
	// records.
	for i, x := range up {
		y := uq[i]
		up[i] = c*x - sn*y
		uq[i] = c*y + sn*x
	}
	vq = vq[:len(vp)]
	for i, x := range vp {
		y := vq[i]
		vp[i] = c*x - sn*y
		vq[i] = sn*x + c*y
	}
	return true
}

// QR computes the reduced QR factorization of an m×n matrix with m >= n:
// A = Q·R with Q m×n having orthonormal columns and R n×n upper
// triangular. The diagonal of R is non-negative.
//
// Reflectors are applied with row-major slice kernels: w = Hᵀv is
// accumulated by sweeping matrix rows (each row segment is a contiguous
// slice), then the rank-1 update subtracts v[i]·w from each row. This
// replaces the seed's per-element At/Set column walks and keeps the
// entire factorization allocation-light (one reflector and one work
// vector reused across columns).
func QR(a *ndarray.Array) (q, r *ndarray.Array) {
	if a.NDim() != 2 {
		panic("linalg: QR requires a 2-d array")
	}
	m, n := a.Dim(0), a.Dim(1)
	if m < n {
		panic(fmt.Sprintf("linalg: QR requires m >= n, got %dx%d", m, n))
	}
	R := a.Copy()
	rd := R.Data() // m×n row-major
	// Accumulate Q as product of reflectors applied to identity (m×m is
	// wasteful; keep m×n panel and apply reflectors from the left in
	// reverse to the first n columns of I).
	vs := make([][]float64, 0, n)
	vnorms := make([]float64, 0, n)
	w := make([]float64, n) // reflector application workspace
	for k := 0; k < n; k++ {
		// Build reflector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			x := rd[i*n+k]
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			vs = append(vs, nil)
			vnorms = append(vnorms, 0)
			continue
		}
		v := make([]float64, m)
		alpha := -norm
		if rd[k*n+k] < 0 {
			alpha = norm
		}
		for i := k; i < m; i++ {
			v[i] = rd[i*n+k]
		}
		v[k] -= alpha
		var vnorm float64
		for i := k; i < m; i++ {
			vnorm += v[i] * v[i]
		}
		if vnorm == 0 {
			vs = append(vs, nil)
			vnorms = append(vnorms, 0)
			continue
		}
		// Apply H = I - 2 v vᵀ / (vᵀv) to R's trailing columns:
		// w[j] = Σ_i v[i]·R[i,j], then R[i,j] -= (2 v[i]/vᵀv)·w[j].
		applyReflector(rd, v, w, vnorm, k, m, n, k)
		vs = append(vs, v)
		vnorms = append(vnorms, vnorm)
	}
	// Q = H_0 H_1 ... H_{n-1} · I_{m×n}.
	Q := ndarray.New(m, n)
	qd := Q.Data()
	for j := 0; j < n; j++ {
		qd[j*n+j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		if vs[k] == nil {
			continue
		}
		applyReflector(qd, vs[k], w, vnorms[k], k, m, n, 0)
	}
	// Zero the strictly-lower part of R and truncate to n×n.
	Rn := ndarray.New(n, n)
	rnd := Rn.Data()
	for i := 0; i < n; i++ {
		copy(rnd[i*n+i:(i+1)*n], rd[i*n+i:(i+1)*n])
	}
	// Normalize sign so diag(R) >= 0.
	for i := 0; i < n; i++ {
		if rnd[i*n+i] < 0 {
			for j := i; j < n; j++ {
				rnd[i*n+j] = -rnd[i*n+j]
			}
			for r := 0; r < m; r++ {
				qd[r*n+i] = -qd[r*n+i]
			}
		}
	}
	return Q, Rn
}

// applyReflector applies H = I - 2 v vᵀ / vnorm to columns [j0,n) of the
// m×n row-major matrix d, touching rows [k,m). w is an n-length
// workspace. Both passes sweep rows so every inner loop runs over a
// contiguous slice; per-column dot products accumulate over ascending i,
// matching the column-walk reference order.
func applyReflector(d, v, w []float64, vnorm float64, k, m, n, j0 int) {
	for j := j0; j < n; j++ {
		w[j] = 0
	}
	for i := k; i < m; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := d[i*n+j0 : i*n+n]
		ws := w[j0:n]
		for j, x := range row {
			ws[j] += vi * x
		}
	}
	scale := 2 / vnorm
	for i := k; i < m; i++ {
		f := scale * v[i]
		if f == 0 {
			continue
		}
		row := d[i*n+j0 : i*n+n]
		ws := w[j0:n]
		for j := range row {
			row[j] -= f * ws[j]
		}
	}
}

// SVD computes the thin singular value decomposition A = U·diag(S)·Vᵀ of
// an m×n matrix using one-sided Jacobi rotations. U is m×k, S has length
// k, V is n×k, with k = min(m, n) and S sorted in non-increasing order.
// Columns of U and V are orthonormal; zero singular values yield
// arbitrary orthonormal-completion columns in U.
func SVD(a *ndarray.Array) (u *ndarray.Array, s []float64, v *ndarray.Array) {
	m, n := svdDims(a)
	if m >= n {
		return svdTall(a.Transpose().Copy().Data(), m, n, true)
	}
	// A = U S Vᵀ  ⇔  Aᵀ = V S Uᵀ, and Aᵀ's columns are A's rows.
	v2, s2, u2 := svdTall(a.Copy().Data(), n, m, true)
	return u2, s2, v2
}

// SVDRight returns the S and V of SVD(a), bit-identical to SVD's, for
// callers that discard U. For m >= n it never forms U, so it skips U's
// normalization and the Gram-Schmidt completion of its zero-singular-
// value columns. A wide input solves the transposed problem, whose U is
// this V, so it costs what SVD does.
func SVDRight(a *ndarray.Array) (s []float64, v *ndarray.Array) {
	m, n := svdDims(a)
	if m >= n {
		_, s, v = svdTall(a.Transpose().Copy().Data(), m, n, false)
		return s, v
	}
	v, s, _ = svdTall(a.Copy().Data(), n, m, true)
	return s, v
}

func svdDims(a *ndarray.Array) (m, n int) {
	if a.NDim() != 2 {
		panic("linalg: SVD requires a 2-d array")
	}
	return a.Dim(0), a.Dim(1)
}

// svdTall runs one-sided Jacobi on an m×n matrix A with m >= n, held as
// its columns: column j is the contiguous slice at[j*m:(j+1)*m]. It
// overwrites at. V's columns are likewise the rows of an n×n buffer, so
// every rotation walks four contiguous slices. U is formed only when
// wantU is set.
//
// Sweeps use a round-robin tournament ordering: each of the n-1 rounds
// pairs every column with a distinct partner, so the rotations of a
// round touch disjoint column pairs and can run on separate goroutines.
// Round order and per-rotation arithmetic are fixed, so the result is
// bit-identical for any ndarray.Workers() setting; only the rotation
// *count* (an order-independent integer) is accumulated across a round.
func svdTall(at []float64, m, n int, wantU bool) (u *ndarray.Array, s []float64, v *ndarray.Array) {
	col := func(j int) []float64 { return at[j*m : (j+1)*m] }
	vt := make([]float64, n*n)
	vcol := func(j int) []float64 { return vt[j*n : (j+1)*n] }
	for j := 0; j < n; j++ {
		vt[j*n+j] = 1
	}
	rounds := jacobiRounds(n, zeroColumns(at, m, n))

	// Rotations in a round write disjoint columns; fan a round out only
	// when its rotations sweep enough column entries to be worth
	// goroutine startup.
	const parallelWork = 1 << 13
	const maxSweeps = 60
	const tol = 1e-14
	var rotations atomic.Int64
	var round []colPair
	rotate := func(lo, hi int) {
		var local int64
		for _, pq := range round[lo:hi] {
			if jacobiRotate(col(pq.p), col(pq.q), vcol(pq.p), vcol(pq.q), tol) {
				local++
			}
		}
		if local != 0 {
			rotations.Add(local)
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotations.Store(0)
		for _, round = range rounds {
			if len(round)*m >= parallelWork {
				ndarray.ParallelFor(len(round), 1, rotate)
			} else {
				rotate(0, len(round))
			}
		}
		if rotations.Load() == 0 {
			break
		}
	}

	// Singular values are column norms of the rotated A.
	s = make([]float64, n)
	for j := range s {
		var norm float64
		for _, x := range col(j) {
			norm += x * x
		}
		s[j] = math.Sqrt(norm)
	}
	// Sort descending, permuting columns of U and V.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	sorted := make([]float64, n)
	Vs := ndarray.New(n, n)
	vsd := Vs.Data()
	for jj, oj := range order {
		sorted[jj] = s[oj]
		for i, x := range vcol(oj) {
			vsd[i*n+jj] = x
		}
	}
	if !wantU {
		return nil, sorted, Vs
	}
	Us := ndarray.New(m, n)
	usd := Us.Data()
	for jj, oj := range order {
		if s[oj] > 0 {
			inv := 1 / s[oj]
			for i, x := range col(oj) {
				usd[i*n+jj] = x * inv
			}
		} else {
			// Zero singular value: a placeholder unit vector, completed
			// below.
			usd[(jj%m)*n+jj] = 1
		}
	}
	orthonormalizeZeroCols(Us, sorted)
	return Us, sorted, Vs
}

// zeroColumns reports which columns of svdTall's at are exactly zero and
// may be left out of every sweep (LAPACK dgesvj skips zero-norm columns
// the same way). Such a column meets every partner with apq == 0 and
// never rotates, provided the partners stay finite. They do when the
// squared Frobenius norm has headroom below MaxFloat64: rotations
// preserve it, so no column's sum of squares can overflow into an
// Inf/NaN rotation. NaN or ±Inf entries, or squares that overflow, fail
// that check and nothing is skipped, so non-finite values reach the
// zero columns exactly as an unskipped sweep spreads them.
func zeroColumns(at []float64, m, n int) []bool {
	zero := make([]bool, n)
	var sumsq float64
	for j := range zero {
		zero[j] = true
		for _, x := range at[j*m : (j+1)*m] {
			sumsq += x * x
			if x != 0 {
				zero[j] = false
			}
		}
	}
	if !(sumsq <= math.MaxFloat64/2) {
		clear(zero)
	}
	return zero
}

type colPair struct{ p, q int }

// jacobiRounds returns one sweep's circle-method schedule over n
// columns, leaving out every pair with a skipped column. Slot 0 is
// fixed and the rest rotate (one "bye" slot when n is odd): round r
// pairs slot 0 with ring[r] and ring[r+1+t] with ring[r+players-1-t],
// so the pairs of a round touch disjoint columns.
func jacobiRounds(n int, skip []bool) [][]colPair {
	players := n
	if players%2 == 1 {
		players++
	}
	if players < 2 {
		players = 2 // n ≤ 1: no pairs, sweeps are a no-op
	}
	ring := make([]int, players-1)
	for i := range ring {
		ring[i] = i + 1
	}
	rounds := make([][]colPair, players-1)
	pairs := make([]colPair, 0, (players-1)*(players/2))
	for r := range rounds {
		start := len(pairs)
		for t := 0; t < players/2; t++ {
			var p, q int
			if t == 0 {
				p, q = 0, ring[(r+players-2)%(players-1)]
			} else {
				p = ring[(r+t-1)%(players-1)]
				q = ring[(r+players-2-t)%(players-1)]
			}
			if p >= n || q >= n || skip[p] || skip[q] { // bye slot on odd n, or a skipped column
				continue
			}
			if p > q {
				p, q = q, p
			}
			pairs = append(pairs, colPair{p, q})
		}
		rounds[r] = pairs[start:len(pairs):len(pairs)]
	}
	return rounds
}

// orthonormalizeZeroCols re-orthonormalizes U columns that correspond to
// zero singular values against the other columns (modified
// Gram-Schmidt).
func orthonormalizeZeroCols(u *ndarray.Array, s []float64) {
	m, n := u.Dim(0), u.Dim(1)
	ud := u.Data()
	vec := make([]float64, m)
	for j := 0; j < n; j++ {
		if s[j] > 0 {
			continue
		}
		// Try basis vectors until one survives projection.
		for trial := 0; trial < m; trial++ {
			clear(vec)
			vec[(j+trial)%m] = 1
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				var dot float64
				for i, x := range vec {
					dot += x * ud[i*n+k]
				}
				for i := range vec {
					vec[i] -= dot * ud[i*n+k]
				}
			}
			var norm float64
			for _, x := range vec {
				norm += x * x
			}
			norm = math.Sqrt(norm)
			if norm > 1e-8 {
				for i, x := range vec {
					ud[i*n+j] = x / norm
				}
				break
			}
		}
	}
}

// Reconstruct returns U·diag(S)·Vᵀ, for verifying decompositions.
func Reconstruct(u *ndarray.Array, s []float64, v *ndarray.Array) *ndarray.Array {
	k := len(s)
	us := ndarray.New(u.Dim(0), k)
	for i := 0; i < u.Dim(0); i++ {
		for j := 0; j < k; j++ {
			us.Set(u.At(i, j)*s[j], i, j)
		}
	}
	return ndarray.MatMul(us, v.Transpose())
}

// IsOrthonormalCols reports whether the columns of a are orthonormal
// within tol.
func IsOrthonormalCols(a *ndarray.Array, tol float64) bool {
	gram := ndarray.MatMul(a.Transpose(), a)
	n := gram.Dim(0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(gram.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// IsUpperTriangular reports whether a square matrix is upper triangular
// within tol.
func IsUpperTriangular(a *ndarray.Array, tol float64) bool {
	n := a.Dim(0)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(a.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}
